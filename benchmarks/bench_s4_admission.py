"""Experiment S4 -- runtime admission control dynamics.

Logical real-time connections "may be added and removed from the system
during runtime" (Section 1).  Poisson connection arrivals and departures
drive the admission controller; the bench reports acceptance ratio vs
offered connection load and verifies the running system never misses a
deadline of an *admitted* connection -- even while the set churns.
"""

import numpy as np
from conftest import print_table

from repro.core.admission import AdmissionController
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.sim.runner import ScenarioConfig, make_timing
from repro.sim.engine import Simulation
from repro.traffic.periodic import ConnectionSource, random_connection_set


def test_s4_acceptance_ratio_vs_offered_load(run_once, benchmark):
    def sweep():
        rows = []
        for offered_u in (0.5, 1.0, 2.0, 4.0):
            rng = np.random.default_rng(int(offered_u * 10))
            timing = make_timing(ScenarioConfig(n_nodes=8))
            controller = AdmissionController(timing)
            candidates = random_connection_set(
                rng, 8, 50, offered_u, period_range=(20, 400)
            )
            accepted = sum(
                1 for c in candidates if controller.request(c).accepted
            )
            rows.append(
                (
                    offered_u,
                    accepted,
                    len(candidates),
                    accepted / len(candidates),
                    controller.utilisation,
                    controller.u_max,
                )
            )
        return rows

    rows = run_once(sweep)
    print_table(
        "S4: admission acceptance vs offered connection load (N=8)",
        ["offered U", "accepted", "offered", "accept ratio",
         "U(Ma)", "U_max"],
        rows,
    )
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert rows[0][3] == 1.0, "everything fits at offered U=0.5"
    for row in rows:
        assert row[4] <= row[5]
    benchmark.extra_info["ratios"] = ratios


def test_s4_runtime_churn_never_hurts_admitted(run_once, benchmark):
    """Connections arrive and depart mid-run; admitted traffic stays
    clean throughout."""

    def churn():
        rng = np.random.default_rng(99)
        config = ScenarioConfig(n_nodes=8)
        timing = make_timing(config)
        controller = AdmissionController(timing)
        protocol = CcrEdfProtocol(timing.topology)
        sim = Simulation(timing, protocol, sources=[])

        live: list = []
        events = {"arrivals": 0, "accepted": 0, "departures": 0}
        horizon = 30_000
        while sim.current_slot < horizon:
            sim.step()
            slot = sim.current_slot
            if slot % 500 == 0:
                # One arrival attempt every 500 slots.
                events["arrivals"] += 1
                (cand,) = random_connection_set(
                    rng, 8, 1, 0.2, period_range=(20, 200)
                )
                # Rebase the phase so releases start in the future.
                decision = controller.request(cand)
                if decision.accepted:
                    events["accepted"] += 1
                    sim.attach_source(
                        ConnectionSource(cand, active_from=slot + 1)
                    )
                    live.append(cand)
            if slot % 1700 == 0 and live:
                # Occasional departure.
                victim = live.pop(int(rng.integers(len(live))))
                controller.remove(victim.connection_id)
                sim.detach_connection_source(victim.connection_id)
                events["departures"] += 1
        rt = sim.report.class_stats(TrafficClass.RT_CONNECTION)
        return events, rt, controller

    events, rt, controller = run_once(churn)
    print_table(
        "S4b: 30k-slot churn run (arrive ~every 500 slots, depart ~1700)",
        ["arrivals", "accepted", "departures", "released", "delivered",
         "missed", "final U(Ma)"],
        [(
            events["arrivals"], events["accepted"], events["departures"],
            rt.released, rt.delivered, rt.deadline_missed,
            controller.utilisation,
        )],
    )
    assert rt.deadline_missed == 0
    assert events["accepted"] > 0 and events["departures"] > 0
    assert controller.utilisation <= controller.u_max
    benchmark.extra_info["released"] = rt.released
