"""Tests for per-slot tracing and wire verification."""

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.sim.trace import SlotTrace
from repro.traffic.periodic import ConnectionSource


def build(trace, trace_packets=False, n=4):
    topology = RingTopology.uniform(n, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    protocol = CcrEdfProtocol(topology, trace_packets=trace_packets)
    conn = LogicalRealTimeConnection(
        source=0, destinations=frozenset([2]), period_slots=3, size_slots=1
    )
    return Simulation(
        timing, protocol, sources=[ConnectionSource(conn)], trace=trace
    )


class TestSlotTrace:
    def test_records_one_per_slot(self):
        trace = SlotTrace()
        build(trace).run(50)
        assert len(trace) == 50
        assert [r.slot for r in trace.records] == list(range(50))

    def test_records_transmissions(self):
        trace = SlotTrace()
        build(trace).run(10)
        transmitted = [r for r in trace.records if r.transmitted]
        assert transmitted, "periodic traffic must appear in the trace"
        assert all(t[0] == 0 for r in transmitted for t in r.transmitted)

    def test_capacity_cap(self):
        trace = SlotTrace(max_records=5)
        build(trace).run(20)
        assert len(trace) == 5
        assert trace.truncated

    def test_truncation_counts_dropped_records(self):
        # The truncation is no longer silent: every slot record that did
        # not fit is counted, so callers can report how much is missing.
        trace = SlotTrace(max_records=5)
        build(trace).run(20)
        assert trace.dropped == 15
        assert len(trace) + trace.dropped == 20

    def test_untruncated_trace_reports_zero_dropped(self):
        trace = SlotTrace(max_records=50)
        build(trace).run(20)
        assert not trace.truncated
        assert trace.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_records"):
            SlotTrace(max_records=0)

    def test_gap_and_master_recorded(self):
        trace = SlotTrace()
        build(trace).run(10)
        rec = trace.records[3]
        assert rec.master in range(4)
        assert rec.gap_before_s >= 0.0

    def test_packet_bits_recorded_when_traced(self):
        trace = SlotTrace()
        build(trace, trace_packets=True).run(10)
        rec = trace.records[1]
        # N=4: collection = 1 + 4*(5+8) = 53 bits; distribution = 1+3+2.
        assert rec.collection_bits == 53
        assert rec.distribution_bits == 6

    def test_wire_verification_passes_on_real_run(self):
        trace = SlotTrace(verify_wire=True)
        build(trace, trace_packets=True).run(100)  # must not raise
        assert len(trace) == 100

    def test_packet_bits_zero_without_packet_tracing(self):
        trace = SlotTrace()
        build(trace, trace_packets=False).run(5)
        assert all(r.collection_bits == 0 for r in trace.records)


class TestTraceConformance:
    """The traced wire packets must agree with what actually happened."""

    def test_distribution_grants_match_transmissions(self):
        trace = SlotTrace()
        sim = build(trace, trace_packets=True)
        # Drive a couple of hundred slots, checking each plan's packet
        # against its transmissions.
        for _ in range(200):
            plan = sim.pending_plan
            dist = plan.distribution_packet
            if dist is not None:
                granted_nodes = {tx.node for tx in plan.transmissions}
                for node in range(4):
                    if node == dist.master:
                        continue
                    assert dist.granted(node) == (node in granted_nodes)
                assert dist.hp_node == plan.master or plan.arbitration is None
            sim.step()

    def test_collection_packet_reflects_queue_state(self):
        trace = SlotTrace()
        sim = build(trace, trace_packets=True)
        for _ in range(100):
            plan = sim.pending_plan
            coll = plan.collection_packet
            if coll is not None:
                n_requests = sum(
                    1 for r in coll.requests if not r.is_empty
                )
                assert n_requests == plan.n_requests
            sim.step()
