"""Tests for the exact EDF worst-case response-time analysis."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.response_time import (
    edf_worst_case_response_slots,
    synchronous_busy_period,
)
from repro.analysis.schedulability import processor_demand_test
from repro.core.connection import LogicalRealTimeConnection


def conn(period, size):
    return LogicalRealTimeConnection(
        source=0, destinations=frozenset([1]), period_slots=period, size_slots=size
    )


class TestBusyPeriod:
    def test_empty(self):
        assert synchronous_busy_period([]) == 0

    def test_single_connection(self):
        assert synchronous_busy_period([conn(10, 3)]) == 3

    def test_two_connections(self):
        # e = 2+2 at t=0; L=4: ceil(4/5)*2 + ceil(4/7)*2 = 4. Fixed point.
        assert synchronous_busy_period([conn(5, 2), conn(7, 2)]) == 4

    def test_full_utilisation_busy_period_is_hyperperiod(self):
        # U = 1: the processor never idles; L = lcm of periods.
        assert synchronous_busy_period([conn(4, 2), conn(4, 2)]) == 4

    def test_overload_capped(self):
        assert synchronous_busy_period([conn(4, 3), conn(4, 3)]) == 8  # 2*lcm


class TestWcrt:
    def test_lone_connection(self):
        # Released at t, transmits t+1..t+e: e + 1 slots spanned (the
        # simulator's latency convention, release slot included).
        c = conn(10, 3)
        assert edf_worst_case_response_slots([c], c.connection_id) == 4

    def test_unknown_target_raises(self):
        c = conn(10, 1)
        with pytest.raises(KeyError, match="no connection"):
            edf_worst_case_response_slots([c], 999_999)

    def test_short_period_preempts_long(self):
        fast = conn(4, 1)
        slow = conn(20, 5)
        wcrt_fast = edf_worst_case_response_slots([fast, slow], fast.connection_id)
        wcrt_slow = edf_worst_case_response_slots([fast, slow], slow.connection_id)
        # The fast task has the earlier deadline at a synchronous
        # release: it waits at most for the pipeline.
        assert wcrt_fast <= fast.period_slots + 1
        # The slow one absorbs all fast interference: 5 own slots plus
        # one fast job per 4 slots of window.
        assert wcrt_slow > slow.size_slots + 1
        assert wcrt_slow <= slow.period_slots + 1

    def test_feasible_sets_meet_deadline_window(self):
        conns = [conn(6, 1), conn(8, 2), conn(12, 3)]
        assert processor_demand_test(conns)
        for c in conns:
            wcrt = edf_worst_case_response_slots(conns, c.connection_id)
            assert wcrt <= c.period_slots + 1

    def test_full_load_wcrt_is_tight(self):
        # U = 1, two identical connections: the one losing the tie-break
        # finishes exactly at the end of its window.
        a, b = conn(4, 2), conn(4, 2)
        wcrt_a = edf_worst_case_response_slots([a, b], a.connection_id)
        assert wcrt_a == a.period_slots + 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([3, 4, 6, 8, 12]),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_wcrt_within_window_iff_feasible(self, specs):
        conns = [conn(p, min(s, p)) for p, s in specs]
        assume(processor_demand_test(conns))
        for c in conns:
            wcrt = edf_worst_case_response_slots(conns, c.connection_id)
            assert c.size_slots + 1 <= wcrt <= c.period_slots + 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([4, 6, 8, 12]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_wcrt_dominates_schedule_table_responses(self, specs):
        """The adversarial-offset WCRT upper-bounds every per-job
        response of the *synchronous* ideal-EDF schedule table."""
        from repro.analysis.schedule_table import build_edf_table

        conns = [conn(p, min(s, p)) for p, s in specs]
        assume(processor_demand_test(conns))
        table = build_edf_table(conns)
        assert table.feasible
        for c in conns:
            wcrt = edf_worst_case_response_slots(conns, c.connection_id)
            # Reconstruct per-job completion from the table: job k is
            # released at k*P and completes at the (k+1)*e-th slot
            # assigned to the connection (wire slot = position + 1).
            positions = table.slots_of(c.connection_id)
            jobs = table.hyperperiod_slots // c.period_slots
            for k in range(jobs):
                release = k * c.period_slots
                completion_position = positions[(k + 1) * c.size_slots - 1]
                latency = (completion_position + 1) - release + 1
                assert latency <= wcrt

    def test_quantised_protocol_may_exceed_ideal_edf_wcrt(self):
        """Documented artifact of the 5-bit priority field: two deadlines
        in the same logarithmic bucket tie, and the node-index tie-break
        can favour the *later* deadline -- so the protocol's observed
        latency may exceed the ideal-EDF WCRT (while still meeting the
        deadline window, which the admission test guarantees)."""
        from repro.core.priorities import TrafficClass
        from repro.sim.runner import ScenarioConfig, run_scenario

        placed = [
            LogicalRealTimeConnection(
                source=i,
                destinations=frozenset([(i + 4) % 8]),
                period_slots=p,
                size_slots=e,
            )
            for i, (p, e) in enumerate([(4, 1), (6, 3), (12, 2)])
        ]
        config = ScenarioConfig(
            n_nodes=8, connections=tuple(placed), spatial_reuse=False
        )
        report = run_scenario(config, n_slots=3000)
        for c in placed:
            observed = report.connection_stats(c.connection_id)
            assert observed.deadline_missed == 0
            # The hard guarantee: latency never exceeds the window.
            assert max(observed.latency_counts) <= c.period_slots + 1
