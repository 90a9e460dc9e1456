"""Tests for fault injection and the timeout/designated-node recovery."""

import dataclasses

import numpy as np
import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.sim.fault_models import (
    BernoulliControlLoss,
    CompositeFaultModel,
    GilbertElliottControlLoss,
    RecoveryPolicy,
    ScriptedFaultModel,
    TransientNodeFaults,
)
from repro.traffic.periodic import ConnectionSource


def build(n=4, sources=(), faults=None):
    topology = RingTopology.uniform(n, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    return Simulation(
        timing, CcrEdfProtocol(topology), sources=sources, faults=faults
    )


def conn(source=0, dst=2, period=10, size=1, phase=0):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
    )


class TestFaultInjector:
    def test_alive_before_failure_slot(self):
        inj = ScriptedFaultModel(node_failures={2: 100})
        assert inj.is_alive(2, 99)
        assert not inj.is_alive(2, 100)
        assert inj.is_alive(1, 10**6)

    def test_control_loss_slots(self):
        inj = ScriptedFaultModel(control_loss_slots=frozenset({5, 9}))
        assert inj.distribution_lost(5)
        assert not inj.distribution_lost(6)

    def test_designated_node_is_lowest_alive(self):
        inj = ScriptedFaultModel(node_failures={0: 10, 1: 20})
        assert inj.designated_node(5, 4) == 0
        assert inj.designated_node(15, 4) == 1
        assert inj.designated_node(25, 4) == 2

    def test_all_dead_raises(self):
        inj = ScriptedFaultModel(node_failures={n: 0 for n in range(4)})
        with pytest.raises(RuntimeError, match="all nodes"):
            inj.designated_node(0, 4)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScriptedFaultModel(recovery=RecoveryPolicy(timeout_s=0.0))

    def test_invalid_failure_slot_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScriptedFaultModel(node_failures={0: -1})


class TestNodeFailure:
    def test_dead_node_stops_releasing(self):
        faults = ScriptedFaultModel(node_failures={0: 50})
        sim = build(sources=[ConnectionSource(conn(source=0, period=10))], faults=faults)
        report = sim.run(200)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        # Releases at slots 0, 10, ..., 40 only.
        assert rt.released == 5

    def test_ring_survives_node_failure(self):
        # Node 1 dies; a connection 2 -> 0 (passing through nobody dead,
        # but its traffic pattern keeps the ring alive).
        faults = ScriptedFaultModel(node_failures={1: 30})
        sim = build(
            sources=[ConnectionSource(conn(source=2, dst=0, period=5))],
            faults=faults,
        )
        report = sim.run(500)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.delivered >= 98
        assert rt.deadline_missed == 0

    def test_dead_master_recovered_by_designated_node(self):
        # Node 3 sends periodically, becoming master; it dies mid-run.
        faults = ScriptedFaultModel(
            node_failures={3: 50}, recovery=RecoveryPolicy(timeout_s=1e-6)
        )
        sim = build(
            sources=[
                ConnectionSource(conn(source=3, dst=1, period=4, phase=0)),
                ConnectionSource(conn(source=0, dst=2, period=50, phase=25)),
            ],
            faults=faults,
        )
        report = sim.run(300)
        # The run completes and node 0's traffic still flows after slot 50.
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.delivered > 0
        # Node 0 (the designated node) picked up mastership.
        assert report.master_slots[0] > 0

    def test_recovery_timeout_added_to_gap(self):
        faults = ScriptedFaultModel(
            node_failures={3: 10}, recovery=RecoveryPolicy(timeout_s=5e-6)
        )
        sim = build(
            sources=[ConnectionSource(conn(source=3, dst=1, period=4))],
            faults=faults,
        )
        report = sim.run(50)
        # The recovery gap (5 us) dwarfs normal gaps (< 0.4 us): visible
        # in the accumulated gap time.
        assert report.gap_time_s >= 5e-6


class TestControlLoss:
    def test_lost_distribution_voids_next_slot(self):
        # Control packet of slot 5's arbitration is lost: slot 6 carries
        # nothing and its master is the designated node.
        faults = ScriptedFaultModel(
            control_loss_slots=frozenset({5}),
            recovery=RecoveryPolicy(timeout_s=1e-6),
        )
        sim = build(
            sources=[ConnectionSource(conn(source=2, dst=0, period=1))],
            faults=faults,
        )
        outcomes = [sim.step() for _ in range(10)]
        assert outcomes[6].transmitted == ()
        assert outcomes[6].master == 0  # designated node
        # Operation resumes immediately afterwards.
        assert outcomes[7].transmitted != ()

    def test_loss_costs_one_slot_of_throughput(self):
        faults = ScriptedFaultModel(
            control_loss_slots=frozenset({10, 20, 30}),
            recovery=RecoveryPolicy(timeout_s=1e-6),
        )
        sim_faulty = build(
            sources=[ConnectionSource(conn(source=2, dst=0, period=1))],
            faults=faults,
        )
        clean = build(sources=[ConnectionSource(conn(source=2, dst=0, period=1))])
        faulty_report = sim_faulty.run(100)
        clean_report = clean.run(100)
        assert (
            clean_report.packets_sent - faulty_report.packets_sent == 3
        )


class TestTimeoutInvariant:
    def test_timeout_below_worst_gap_rejected(self):
        """The documented invariant -- the recovery timeout must exceed
        the worst-case hand-over gap -- is now enforced at construction
        instead of silently misclassifying healthy hand-overs."""
        topology = RingTopology.uniform(4, 10.0)
        timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
        too_small = timing.max_handover_time_s / 2
        faults = ScriptedFaultModel(recovery=RecoveryPolicy(timeout_s=too_small))
        with pytest.raises(ValueError, match="hand-over gap"):
            Simulation(timing, CcrEdfProtocol(topology), faults=faults)

    def test_timeout_equal_to_worst_gap_rejected(self):
        topology = RingTopology.uniform(4, 10.0)
        timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
        faults = ScriptedFaultModel(
            recovery=RecoveryPolicy(timeout_s=timing.max_handover_time_s)
        )
        with pytest.raises(ValueError, match="hand-over gap"):
            Simulation(timing, CcrEdfProtocol(topology), faults=faults)

    def test_valid_timeout_accepted(self):
        build(faults=ScriptedFaultModel(recovery=RecoveryPolicy(timeout_s=1e-6)))


def _report_fingerprint(report):
    """A deep, comparable flattening of everything a report measured."""
    per_class = {
        tc.name: dataclasses.asdict(stats)
        for tc, stats in report.per_class.items()
    }
    # Connection ids are process-global auto-increments, so two identical
    # runs get different raw ids; compare the stats in id order instead.
    per_conn = [
        dataclasses.asdict(stats)
        for _, stats in sorted(report.per_connection.items())
    ]
    per_conn = [
        {k: v for k, v in stats.items() if k != "connection_id"}
        for stats in per_conn
    ]
    return (
        report.slots_simulated,
        report.wall_time_s,
        report.slot_time_s,
        report.gap_time_s,
        report.busy_slots,
        report.packets_sent,
        report.wasted_grants,
        report.break_denials,
        dict(report.handover_hops),
        dict(report.master_slots),
        per_class,
        per_conn,
        dataclasses.asdict(report.availability_stats),
    )


class TestStochasticDeterminism:
    """Identical seeds + identical stochastic fault models must give
    bit-identical reports (seed-reproducible fault experiments)."""

    def _stochastic_model(self, seed):
        rng = np.random.default_rng(seed)
        streams = rng.spawn(3)
        recovery = RecoveryPolicy(timeout_s=2e-6)
        return CompositeFaultModel(
            [
                TransientNodeFaults(
                    streams[0],
                    n_nodes=4,
                    mttf_slots=400,
                    mttr_slots=60,
                    immortal={0},
                    recovery=recovery,
                ),
                BernoulliControlLoss(
                    streams[1],
                    p_collection=0.005,
                    p_distribution=0.005,
                    recovery=recovery,
                ),
                GilbertElliottControlLoss(
                    streams[2],
                    p_good_to_bad=0.002,
                    p_bad_to_good=0.2,
                    loss_bad=0.9,
                    recovery=recovery,
                ),
            ],
            recovery=recovery,
        )

    def _run(self, seed):
        sim = build(
            sources=[
                ConnectionSource(conn(source=1, dst=3, period=6)),
                ConnectionSource(conn(source=2, dst=0, period=10, phase=3)),
            ],
            faults=self._stochastic_model(seed),
        )
        return sim.run(3000)

    def test_same_seed_bit_identical(self):
        a = self._run(seed=42)
        b = self._run(seed=42)
        assert _report_fingerprint(a) == _report_fingerprint(b)

    def test_different_seed_diverges(self):
        a = self._run(seed=42)
        b = self._run(seed=43)
        assert _report_fingerprint(a) != _report_fingerprint(b)

    def test_faults_actually_fired(self):
        report = self._run(seed=42)
        assert report.availability_stats.total_fault_events > 0
        assert report.availability_stats.recoveries > 0


class TestTotalFailure:
    def test_all_nodes_dead_surfaces_clearly(self):
        """When the last node dies there is no designated node left; the
        engine surfaces that as a RuntimeError instead of looping."""
        faults = ScriptedFaultModel(node_failures={n: 10 for n in range(4)})
        sim = build(
            sources=[ConnectionSource(conn(source=2, dst=0, period=5))],
            faults=faults,
        )
        with pytest.raises(RuntimeError, match="all nodes"):
            sim.run(100)

    def test_last_survivor_keeps_the_network_up(self):
        faults = ScriptedFaultModel(node_failures={1: 10, 2: 10, 3: 10})
        sim = build(
            sources=[ConnectionSource(conn(source=0, dst=2, period=5))],
            faults=faults,
        )
        report = sim.run(200)
        # Node 0 survives and keeps releasing; its destination is dead
        # but pass-through delivery still completes (passive bypass).
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.released == 40
        assert report.master_slots[0] > 0
