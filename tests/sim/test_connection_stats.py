"""Tests for per-connection statistics and jitter accounting."""

import math
from collections import Counter

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.sim.metrics import ConnectionStats
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation


def conns():
    a = LogicalRealTimeConnection(
        source=0, destinations=frozenset([3]), period_slots=10, size_slots=2
    )
    b = LogicalRealTimeConnection(
        source=4, destinations=frozenset([6]), period_slots=25, size_slots=5
    )
    return a, b


class TestConnectionStatsObject:
    def test_empty(self):
        s = ConnectionStats(connection_id=1)
        assert s.deadline_miss_ratio == 0.0
        assert math.isnan(s.mean_latency_slots)
        assert s.jitter_slots == 0
        assert s.latency_std_slots == 0.0

    def test_jitter_is_peak_to_peak(self):
        s = ConnectionStats(connection_id=1, latency_counts=Counter([3, 7, 5]))
        assert s.jitter_slots == 4
        assert s.mean_latency_slots == pytest.approx(5.0)
        assert s.latency_std_slots > 0


class TestPerConnectionAccounting:
    def run(self, n_slots=2000):
        a, b = conns()
        config = ScenarioConfig(n_nodes=8, connections=(a, b))
        sim = build_simulation(config)
        sim.run(n_slots)
        return sim.report, a, b

    def test_each_connection_tracked_separately(self):
        report, a, b = self.run()
        sa = report.connection_stats(a.connection_id)
        sb = report.connection_stats(b.connection_id)
        assert sa.released == 200
        assert sb.released == 80
        assert sa.deadline_missed == 0
        assert sb.deadline_missed == 0

    def test_connection_totals_sum_to_class_totals(self):
        report, a, b = self.run()
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        conn_released = sum(s.released for s in report.per_connection.values())
        conn_delivered = sum(s.delivered for s in report.per_connection.values())
        assert conn_released == rt.released
        assert conn_delivered == rt.delivered

    def test_unknown_connection_raises(self):
        report, a, b = self.run(n_slots=100)
        with pytest.raises(KeyError, match="released no messages"):
            report.connection_stats(999_999)

    def test_jitter_measured_under_contention(self):
        """Two connections sharing links produce latency spread on the
        lower-priority one; jitter must capture it."""
        a = LogicalRealTimeConnection(
            source=0, destinations=frozenset([4]), period_slots=4, size_slots=2
        )
        b = LogicalRealTimeConnection(
            source=1, destinations=frozenset([5]), period_slots=16, size_slots=4
        )
        config = ScenarioConfig(n_nodes=8, connections=(a, b))
        sim = build_simulation(config)
        sim.run(4000)
        sb = sim.report.connection_stats(b.connection_id)
        assert sb.deadline_missed == 0
        assert sb.jitter_slots >= 0
        assert sb.latency_counts.total() == sb.delivered

    def test_isolated_connection_has_constant_latency(self):
        """A lone connection on an idle ring sees zero jitter: every
        message takes exactly the pipeline latency."""
        a = LogicalRealTimeConnection(
            source=0, destinations=frozenset([3]), period_slots=10, size_slots=1
        )
        config = ScenarioConfig(n_nodes=8, connections=(a,))
        sim = build_simulation(config)
        sim.run(2000)
        sa = sim.report.connection_stats(a.connection_id)
        assert sa.jitter_slots == 0
        assert sa.mean_latency_slots == pytest.approx(2.0)

    def test_best_effort_not_in_per_connection(self):
        from repro.services.api import MessageInjector

        injector = MessageInjector(1)
        config = ScenarioConfig(n_nodes=8)
        sim = build_simulation(config, RunOptions(extra_sources=(injector,)))
        injector.submit([3], relative_deadline_slots=50)
        sim.run(50)
        assert sim.report.per_connection == {}
