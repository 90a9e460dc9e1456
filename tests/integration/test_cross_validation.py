"""Grand cross-validation: every layer agrees on random workloads.

For each randomly generated feasible synchronous connection set, six
independent artefacts must be mutually consistent:

1. the demand-bound feasibility test says YES;
2. the offline EDF schedule table is feasible, with exactly ``1 - U`` of
   its slots idle;
3. the exact WCRT of every connection fits its deadline window;
4. the protocol simulator (analysis mode) misses nothing;
5. the wall-clock auditor confirms every delivery beat the pessimistic
   Equation (5) pace;
6. per-connection simulator statistics conserve messages and respect the
   WCRT-window ordering.

One hypothesis-driven test; any inconsistency between the analytical,
constructive, and simulated views of the same protocol fails it.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.response_time import edf_worst_case_response_slots
from repro.analysis.schedulability import (
    processor_demand_test,
    slot_domain_utilisation,
)
from repro.analysis.schedule_table import build_edf_table
from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.sim.runner import ScenarioConfig, build_simulation
from repro.sim.wallclock import WallClockAuditor


@st.composite
def feasible_sets(draw):
    n_nodes = draw(st.integers(min_value=4, max_value=8))
    k = draw(st.integers(min_value=1, max_value=4))
    conns = []
    for i in range(k):
        period = draw(st.sampled_from([4, 6, 8, 12, 24]))
        size = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        src = (2 * i + draw(st.integers(min_value=0, max_value=1))) % n_nodes
        dst = (src + draw(st.integers(min_value=1, max_value=n_nodes - 1))) % n_nodes
        conns.append(
            LogicalRealTimeConnection(
                source=src,
                destinations=frozenset([dst]),
                period_slots=period,
                size_slots=size,
                phase_slots=0,
            )
        )
    return n_nodes, conns


@given(feasible_sets())
@settings(max_examples=20, deadline=None)
def test_all_layers_agree(case):
    n_nodes, conns = case
    assume(processor_demand_test(conns))
    u = slot_domain_utilisation(conns)

    # --- 2. schedule table ------------------------------------------------
    table = build_edf_table(conns)
    assert table.feasible
    assert table.idle_slots == round(table.hyperperiod_slots * (1 - u))

    # --- 3. WCRT ----------------------------------------------------------
    wcrt = {}
    for c in conns:
        wcrt[c.connection_id] = edf_worst_case_response_slots(
            conns, c.connection_id
        )
        assert c.size_slots + 1 <= wcrt[c.connection_id] <= c.period_slots + 1

    # --- 4 + 5. simulator with wall-clock audit ---------------------------
    config = ScenarioConfig(
        n_nodes=n_nodes, connections=tuple(conns), spatial_reuse=False
    )
    sim = build_simulation(config)
    auditor = WallClockAuditor(sim)
    horizon = min(6 * table.hyperperiod_slots + 50, 3000)
    auditor.run(horizon)
    report = sim.report

    rt = report.class_stats(TrafficClass.RT_CONNECTION)
    assert rt.deadline_missed == 0
    assert auditor.all_met

    # --- 6. per-connection conservation and ordering ----------------------
    queued = sum(q.pending_count() for q in sim.queues.values())
    assert rt.released == rt.delivered + rt.dropped + queued
    for c in conns:
        stats = report.connection_stats(c.connection_id)
        assert stats.deadline_missed == 0
        assert stats.delivered <= stats.released
        # Simulated latencies stay inside the deadline window; the ideal
        # WCRT may be exceeded only through priority-bucket quantisation,
        # never past the window.
        if stats.latency_counts:
            assert max(stats.latency_counts) <= c.period_slots + 1
