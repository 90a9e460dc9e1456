"""Tests for the metrics collector and simulation report."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.core.protocol import PlannedTransmission, SlotOutcome, SlotPlan
from repro.sim.fault_models import FaultConfig
from repro.sim.metrics import (
    ClassStats,
    MetricsCollector,
    SimulationReport,
    registry_of,
)
from repro.sim.runner import RunOptions, ScenarioConfig, run_scenario
from repro.traffic.periodic import random_connection_set
from repro.traffic.poisson import PoissonSource
from repro.traffic.sweeps import scale_connections_to_utilisation


def rt_msg(deadline, created=0, size=1):
    return Message(
        source=0,
        destinations=frozenset([1]),
        traffic_class=TrafficClass.RT_CONNECTION,
        size_slots=size,
        created_slot=created,
        deadline_slot=deadline,
        connection_id=0,
    )


def tx(msg):
    return PlannedTransmission(node=msg.source, message=msg, links=1, destinations=msg.destinations)


def outcome(slot, master=0, gap=0.0, transmitted=(), wasted=()):
    return SlotOutcome(
        slot=slot, master=master, gap_s=gap, transmitted=transmitted, wasted=wasted
    )


def plan(slot, master=0, gap=0.0, denied=()):
    return SlotPlan(
        transmit_slot=slot, master=master, gap_s=gap, denied_by_break=denied
    )


class TestClassStats:
    def test_miss_ratio_zero_without_deadline_traffic(self):
        assert ClassStats().deadline_miss_ratio == 0.0

    def test_miss_ratio(self):
        s = ClassStats(deadline_met=8, deadline_missed=2)
        assert s.deadline_miss_ratio == pytest.approx(0.2)

    def test_latency_stats(self):
        s = ClassStats(latencies_slots=[2, 4, 6])
        assert s.mean_latency_slots == pytest.approx(4.0)
        assert s.max_latency_slots == 6
        assert s.latency_percentile(50) == pytest.approx(4.0)

    def test_empty_latency_stats_are_nan(self):
        s = ClassStats()
        assert math.isnan(s.mean_latency_slots)
        # NaN, not 0: a genuine 0-slot maximum latency is impossible, so
        # the old 0 sentinel read as a (perfect) measurement.
        assert math.isnan(s.max_latency_slots)
        assert math.isnan(s.latency_percentile(99))

    def test_latency_percentile_rejects_fractional_quantiles(self):
        # q is a percentage in [0, 100]; q=0.5 almost always means the
        # caller wanted the median (q=50), so out-of-convention values
        # are rejected rather than silently computed.
        s = ClassStats(latencies_slots=[2, 4, 6])
        assert s.latency_percentile(50) == pytest.approx(4.0)
        assert s.latency_percentile(0) == pytest.approx(2.0)
        assert s.latency_percentile(100) == pytest.approx(6.0)
        with pytest.raises(ValueError, match="percentage"):
            s.latency_percentile(101)
        with pytest.raises(ValueError, match="percentage"):
            s.latency_percentile(-1)


class TestCollector:
    def test_release_delivery_accounting(self):
        c = MetricsCollector(n_nodes=4)
        msg = rt_msg(deadline=10)
        c.on_release(msg)
        msg.record_sent_packet(slot=3)
        c.on_delivery(msg)
        stats = c.report.class_stats(TrafficClass.RT_CONNECTION)
        assert stats.released == 1
        assert stats.delivered == 1
        assert stats.deadline_met == 1
        assert stats.latencies_slots == [4]  # slots 0..3 inclusive

    def test_missed_delivery_counted(self):
        c = MetricsCollector(n_nodes=4)
        msg = rt_msg(deadline=2)
        c.on_release(msg)
        msg.record_sent_packet(slot=9)
        c.on_delivery(msg)
        assert c.report.class_stats(TrafficClass.RT_CONNECTION).deadline_missed == 1

    def test_drop_counts_as_miss_for_deadline_traffic(self):
        c = MetricsCollector(n_nodes=4)
        msg = rt_msg(deadline=2)
        c.on_release(msg)
        msg.drop()
        c.on_drop(msg)
        stats = c.report.class_stats(TrafficClass.RT_CONNECTION)
        assert stats.dropped == 1
        assert stats.deadline_missed == 1

    def test_nrt_drop_is_not_a_miss(self):
        c = MetricsCollector(n_nodes=4)
        msg = Message(
            source=0,
            destinations=frozenset([1]),
            traffic_class=TrafficClass.NON_REAL_TIME,
            size_slots=1,
            created_slot=0,
        )
        c.on_release(msg)
        msg.drop()
        c.on_drop(msg)
        stats = c.report.class_stats(TrafficClass.NON_REAL_TIME)
        assert stats.dropped == 1
        assert stats.deadline_missed == 0

    def test_slot_accounting(self):
        c = MetricsCollector(n_nodes=4)
        m1, m2 = rt_msg(10), rt_msg(20)
        c.on_slot(
            outcome(0, master=1, gap=1e-7, transmitted=(tx(m1), tx(m2))),
            plan(0, master=1),
            slot_length_s=2e-6,
            handover_hops=3,
        )
        r = c.report
        assert r.slots_simulated == 1
        assert r.busy_slots == 1
        assert r.packets_sent == 2
        assert r.wall_time_s == pytest.approx(2e-6 + 1e-7)
        assert r.handover_hops[3] == 1
        assert r.master_slots[1] == 1

    def test_idle_slot_not_busy(self):
        c = MetricsCollector(n_nodes=4)
        c.on_slot(outcome(0), plan(0), slot_length_s=2e-6, handover_hops=0)
        assert c.report.busy_slots == 0

    def test_break_denials_accumulate(self):
        c = MetricsCollector(n_nodes=4)
        denied = (tx(rt_msg(10)),)
        c.on_slot(
            outcome(0), plan(0, denied=denied), slot_length_s=2e-6, handover_hops=0
        )
        assert c.report.break_denials == 1


class TestReportDerived:
    def make_report(self):
        c = MetricsCollector(n_nodes=4)
        for slot in range(10):
            msgs = (tx(rt_msg(100, created=slot)),) if slot % 2 == 0 else ()
            c.on_slot(
                outcome(slot, gap=1e-7, transmitted=msgs),
                plan(slot),
                slot_length_s=1e-6,
                handover_hops=slot % 4,
            )
        return c.report

    def test_throughput(self):
        r = self.make_report()
        assert r.throughput_packets_per_slot == pytest.approx(0.5)
        assert r.throughput_packets_per_s == pytest.approx(
            5 / r.wall_time_s
        )

    def test_reuse_factor(self):
        r = self.make_report()
        assert r.spatial_reuse_factor == pytest.approx(1.0)

    def test_utilisation(self):
        r = self.make_report()
        assert r.utilisation == pytest.approx(1e-5 / (1e-5 + 10 * 1e-7))

    def test_mean_gap(self):
        r = self.make_report()
        assert r.mean_gap_s == pytest.approx(1e-7)

    def test_empty_report_nan_guards(self):
        from repro.sim.metrics import SimulationReport

        r = SimulationReport(n_nodes=4)
        assert math.isnan(r.spatial_reuse_factor)
        assert math.isnan(r.throughput_packets_per_slot)
        assert math.isnan(r.utilisation)
        assert r.overall_deadline_miss_ratio == 0.0

    def test_totals(self):
        c = MetricsCollector(n_nodes=4)
        for _ in range(3):
            msg = rt_msg(100)
            c.on_release(msg)
            msg.record_sent_packet(0)
            c.on_delivery(msg)
        assert c.report.total_released == 3
        assert c.report.total_delivered == 3


def _run(utilisation, n_slots, **config):
    """An 8-node RT workload plus best-effort Poisson traffic."""
    rng = np.random.default_rng(5)
    conns = random_connection_set(rng, 8, 12, 0.5, period_range=(10, 100))
    conns = scale_connections_to_utilisation(conns, utilisation)
    best_effort = PoissonSource(
        node=3,
        n_nodes=8,
        rate_per_slot=0.05,
        traffic_class=TrafficClass.BEST_EFFORT,
        relative_deadline_slots=40,
        rng=rng,
    )
    return run_scenario(
        ScenarioConfig(n_nodes=8, connections=tuple(conns), **config),
        n_slots,
        RunOptions(extra_sources=[best_effort]),
    )


def _by_hand(report):
    """The registry snapshot recomputed from the report's own fields."""
    classes = list(report.per_class.values())
    a = report.availability_stats
    counters = {
        "sim:released": sum(c.released for c in classes),
        "sim:delivered": sum(c.delivered for c in classes),
        "sim:dropped": sum(c.dropped for c in classes),
        "sim:deadline_missed": sum(c.deadline_missed for c in classes),
        "sim:recoveries": a.recoveries,
        **{f"sim:fault:{kind}": n for kind, n in a.fault_events.items()},
    }
    latencies = [x for c in classes for x in c.latencies_slots]
    buckets = Counter(x.bit_length() for x in latencies)
    return {
        "counters": {k: v for k, v in counters.items() if v},
        "histograms": {
            "sim:latency_slots": {
                "count": len(latencies),
                "total": float(sum(latencies)),
                "min": min(latencies),
                "max": max(latencies),
                "mean": sum(latencies) / len(latencies),
                "buckets": {str(b): n for b, n in sorted(buckets.items())},
            }
        },
    }


class TestRegistryOf:
    def test_drop_late_overload(self):
        report = _run(1.3, 4000, drop_late=True)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        best_effort = report.class_stats(TrafficClass.BEST_EFFORT)
        # Drop-late turns every miss into a drop, in both classes.
        assert rt.dropped and best_effort.dropped
        counters = registry_of(report).as_dict()["counters"]
        assert counters["sim:deadline_missed"] == report.total_missed
        assert counters["sim:dropped"] == report.total_dropped
        assert not any(k.startswith("sim:fault") for k in counters)
        assert "sim:recoveries" not in counters
        assert registry_of(report).as_dict() == _by_hand(report)

    def test_fault_run(self):
        report = _run(
            0.6,
            6000,
            fault_config=FaultConfig(
                node_mttf_slots=1500.0,
                node_mttr_slots=100.0,
                p_collection_loss=0.01,
                p_distribution_loss=0.01,
                p_clock_glitch=0.005,
                seed=3,
            ),
        )
        a = report.availability_stats
        assert a.recoveries and a.node_failures
        assert len(a.fault_events) == 4
        registry = registry_of(report)
        assert registry.counters["sim:recoveries"] == a.recoveries
        assert registry.counters["sim:fault:node_failure"] == a.node_failures
        assert registry.as_dict() == _by_hand(report)

    def test_zero_totals_leave_no_counter(self):
        report = _run(0.3, 2000)
        assert report.total_missed == 0
        assert set(registry_of(report).counters) == {
            "sim:released",
            "sim:delivered",
        }
        assert registry_of(SimulationReport(n_nodes=4)).as_dict() == {
            "counters": {},
            "histograms": {},
        }
