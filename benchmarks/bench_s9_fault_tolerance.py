"""Experiment S9 -- future-work features: clock-loss recovery and node
failure.

Section 8: "using a time out and a designated node that always will
start could solve this".  The bench measures the cost of that recovery
(slots and wall time lost per control-loss event) and the network's
behaviour across a node failure.
"""

import numpy as np
from conftest import print_table

from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.sim.fault_models import RecoveryPolicy, ScriptedFaultModel
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation


def workload(n):
    return tuple(
        LogicalRealTimeConnection(
            source=i,
            destinations=frozenset([(i + 2) % n]),
            period_slots=2 * n,
            size_slots=2,
            phase_slots=2 * i,
        )
        for i in range(n)
    )


def test_s9_control_loss_recovery_cost(run_once, benchmark):
    n = 8

    def sweep():
        rows = []
        for loss_count in (0, 5, 20):
            rng = np.random.default_rng(4)
            losses = frozenset(
                int(x) for x in rng.choice(range(100, 19_900), loss_count, replace=False)
            )
            faults = (
                ScriptedFaultModel(
                    control_loss_slots=losses,
                    recovery=RecoveryPolicy(timeout_s=2e-6),
                )
                if loss_count
                else None
            )
            config = ScenarioConfig(n_nodes=n, connections=workload(n))
            sim = build_simulation(config, RunOptions(faults=faults))
            report = sim.run(20_000)
            rt = report.class_stats(TrafficClass.RT_CONNECTION)
            rows.append(
                (
                    loss_count,
                    report.packets_sent,
                    rt.deadline_missed,
                    report.gap_time_s * 1e6,
                )
            )
        return rows

    rows = run_once(sweep)
    print_table(
        "S9: control-loss recovery (timeout 2 us, designated node 0)",
        ["losses", "packets sent", "RT missed", "gap time [us]"],
        rows,
    )
    clean = rows[0]
    for losses, packets, missed, gap in rows[1:]:
        # Each loss costs about one slot of useful work and one timeout.
        assert clean[1] - packets <= 2 * losses
        assert gap >= losses * 2.0  # >= losses * timeout (us)
    # Plenty of slack (period 16 for 2 slots): recovery absorbs misses.
    assert all(r[2] == 0 for r in rows)
    benchmark.extra_info["rows"] = len(rows)


def test_s9_node_failure_isolation(run_once, benchmark):
    """A fail-stop node takes only its own traffic down; the designated
    node inherits mastership and everyone else continues unharmed."""
    n = 8

    def measure():
        fail_slot = 10_000
        faults = ScriptedFaultModel(
            node_failures={3: fail_slot},
            recovery=RecoveryPolicy(timeout_s=2e-6),
        )
        config = ScenarioConfig(n_nodes=n, connections=workload(n))
        sim = build_simulation(config, RunOptions(faults=faults))
        report = sim.run(20_000)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        # Expected releases: all nodes for 10k slots, all but node 3 after.
        per_node_releases = 10_000 // (2 * n)
        expected = n * per_node_releases + (n - 1) * per_node_releases
        return rt, expected, report

    rt, expected, report = run_once(measure)
    print_table(
        "S9b: node 3 fails at slot 10000 (of 20000)",
        ["released", "expected", "delivered", "missed"],
        [(rt.released, expected, rt.delivered, rt.deadline_missed)],
    )
    assert abs(rt.released - expected) <= 8  # phase rounding
    assert rt.deadline_missed == 0
    # The survivors' messages all arrive (the last few may be in flight).
    assert rt.delivered >= rt.released - 4
    benchmark.extra_info["released"] = rt.released
