"""Tests for the simulation engine."""

import numpy as np
import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.traffic.periodic import ConnectionSource
from repro.traffic.poisson import PoissonSource


def build(n=4, sources=(), **kw):
    topology = RingTopology.uniform(n, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    protocol = CcrEdfProtocol(topology)
    return Simulation(timing, protocol, sources=sources, **kw)


def conn(source=0, dst=2, period=10, size=1, phase=0):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
    )


class TestBasicOperation:
    def test_idle_ring_runs(self):
        sim = build()
        report = sim.run(100)
        assert report.slots_simulated == 100
        assert report.packets_sent == 0
        assert report.wall_time_s == pytest.approx(100 * sim.timing.slot_length_s)

    def test_single_connection_delivers_all(self):
        sim = build(sources=[ConnectionSource(conn(period=10))])
        report = sim.run(1000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.released == 100
        assert rt.delivered >= 99  # the last release may still be queued
        assert rt.deadline_missed == 0

    def test_first_message_latency_is_pipeline_delay(self):
        sim = build(sources=[ConnectionSource(conn(period=10))])
        report = sim.run(20)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        # Released at slot 0, arbitrated during slot 0, sent in slot 1:
        # latency = completed - created + 1 = 2 slots.
        assert rt.latency_counts == {2: 2}

    def test_run_returns_cumulative_report(self):
        sim = build(sources=[ConnectionSource(conn(period=5))])
        sim.run(50)
        report = sim.run(50)
        assert report.slots_simulated == 100

    def test_negative_slot_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build().run(-1)

    def test_invalid_initial_master_rejected(self):
        with pytest.raises(ValueError, match="initial master"):
            build(initial_master=7)

    def test_source_out_of_ring_rejected(self):
        src = ConnectionSource(conn(source=5, dst=6, period=10))
        topology = RingTopology.uniform(4, 10.0)
        timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
        with pytest.raises(ValueError, match="outside the ring"):
            Simulation(timing, CcrEdfProtocol(topology), sources=[src])

    def test_ring_size_mismatch_rejected(self):
        timing = NetworkTiming(
            topology=RingTopology.uniform(4), link=FibreRibbonLink()
        )
        protocol = CcrEdfProtocol(RingTopology.uniform(8))
        with pytest.raises(ValueError, match="disagree"):
            Simulation(timing, protocol)


class TestTimeAccounting:
    def test_wall_time_includes_gaps(self):
        # Two alternating senders force the master to move between them.
        sources = [
            ConnectionSource(conn(source=0, dst=1, period=2, phase=0)),
            ConnectionSource(conn(source=2, dst=3, period=2, phase=1)),
        ]
        sim = build(sources=sources)
        report = sim.run(200)
        assert report.gap_time_s > 0.0
        assert report.wall_time_s == pytest.approx(
            report.slot_time_s + report.gap_time_s
        )

    def test_utilisation_below_one_with_hopping_master(self):
        sources = [
            ConnectionSource(conn(source=0, dst=1, period=2, phase=0)),
            ConnectionSource(conn(source=2, dst=3, period=2, phase=1)),
        ]
        report = build(sources=sources).run(500)
        assert report.utilisation < 1.0

    def test_static_master_has_unit_utilisation(self):
        # A single sender keeps the clock forever: zero gaps.
        report = build(sources=[ConnectionSource(conn(period=2))]).run(500)
        assert report.utilisation == pytest.approx(1.0)

    def test_handover_hops_histogram(self):
        sources = [
            ConnectionSource(conn(source=0, dst=1, period=2, phase=0)),
            ConnectionSource(conn(source=2, dst=3, period=2, phase=1)),
        ]
        report = build(sources=sources).run(500)
        assert sum(report.handover_hops.values()) == 500
        # The master alternates 0 <-> 2 on a 4-ring: hops of 2 dominate.
        assert report.handover_hops[2] > 0


class TestDeadlines:
    def test_overload_misses_deadlines(self):
        # Two nodes, each wanting 60% of the slots, with *overlapping*
        # paths (0 -> 2 and 1 -> 3 share link 1) so spatial reuse cannot
        # rescue the overload: someone must miss.
        sources = [
            ConnectionSource(conn(source=0, dst=2, period=5, size=3)),
            ConnectionSource(conn(source=1, dst=3, period=5, size=3)),
        ]
        report = build(sources=sources).run(2000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.deadline_missed > 0

    def test_drop_late_policy_counts_drops_as_misses(self):
        sources = [
            ConnectionSource(conn(source=0, dst=2, period=5, size=3)),
            ConnectionSource(conn(source=1, dst=3, period=5, size=3)),
        ]
        sim = build(sources=sources, drop_late=True)
        report = sim.run(2000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.dropped > 0
        assert rt.deadline_missed >= rt.dropped

    def test_feasible_set_never_misses(self):
        sources = [
            ConnectionSource(conn(source=0, dst=1, period=10, size=2, phase=0)),
            ConnectionSource(conn(source=1, dst=2, period=10, size=2, phase=3)),
            ConnectionSource(conn(source=2, dst=3, period=10, size=2, phase=6)),
        ]
        report = build(sources=sources).run(5000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.deadline_missed == 0
        assert rt.released > 0


class TestClassIsolation:
    def test_background_nrt_does_not_disturb_rt(self):
        rng = np.random.default_rng(0)
        rt_sources = [
            ConnectionSource(conn(source=0, dst=2, period=4, size=2)),
        ]
        nrt_sources = [
            PoissonSource(
                node=n,
                n_nodes=4,
                rate_per_slot=0.8,
                traffic_class=TrafficClass.NON_REAL_TIME,
                rng=rng,
            )
            for n in range(4)
        ]
        report = build(sources=rt_sources + nrt_sources).run(4000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.deadline_missed == 0
        # The NRT backlog still drains in leftover capacity.
        nrt = report.class_stats(TrafficClass.NON_REAL_TIME)
        assert nrt.delivered > 0


class TestSourceValidation:
    def test_inconsistent_source_caught(self):
        class BrokenSource:
            node = 0

            def messages_for_slot(self, slot):
                from repro.core.messages import Message

                return [
                    Message(
                        source=1,  # wrong node
                        destinations=frozenset([2]),
                        traffic_class=TrafficClass.NON_REAL_TIME,
                        size_slots=1,
                        created_slot=slot,
                    )
                ]

        sim = build(sources=[BrokenSource()])
        with pytest.raises(ValueError, match="inconsistent"):
            sim.step()

    def test_duck_typed_source_without_next_release_slot(self):
        """Anything with ``node`` and ``messages_for_slot`` is a source:
        it is polled every slot, under ``step()`` and under ``run()``
        (where it simply vetoes fast-forward)."""

        class Beacon:
            node = 1

            def __init__(self):
                self.polled = []

            def messages_for_slot(self, slot):
                from repro.core.messages import Message

                self.polled.append(slot)
                if slot % 4:
                    return []
                return [
                    Message(
                        source=1,
                        destinations=frozenset([3]),
                        traffic_class=TrafficClass.NON_REAL_TIME,
                        size_slots=1,
                        created_slot=slot,
                    )
                ]

        beacon = Beacon()
        sim = build(sources=[beacon, ConnectionSource(conn(period=50))])
        for _ in range(5):
            sim.step()
        sim.run(15)
        assert beacon.polled == list(range(20))
        nrt = sim.report.class_stats(TrafficClass.NON_REAL_TIME)
        assert nrt.released == 5
