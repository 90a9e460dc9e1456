"""Experiment E3/E4 -- Equations (3)/(4): worst-case latency.

Measures access latency of the highest-priority message under
adversarial arrival phasing and background load, against the analytical
bound t_latency = 2*t_slot + t_handover_max, and reports t_maxdelay for
a range of user deadlines.
"""

import numpy as np
from conftest import print_table

from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.traffic.base import TrafficSource
from repro.traffic.periodic import ConnectionSource
from repro.core.connection import LogicalRealTimeConnection


class _Probe(TrafficSource):
    """Injects one urgent RT-class probe message at a chosen slot."""

    def __init__(self, node, dst, slot):
        self.node = node
        self.dst = dst
        self.slot = slot
        self.message = None

    def messages_for_slot(self, slot):
        if slot != self.slot:
            return []
        self.message = Message(
            source=self.node,
            destinations=frozenset([self.dst]),
            traffic_class=TrafficClass.RT_CONNECTION,
            size_slots=1,
            created_slot=slot,
            deadline_slot=slot,  # laxity 0: globally most urgent
            connection_id=0,
        )
        return [self.message]


def background(n):
    """Moderate background RT load on every node (longer deadlines)."""
    return [
        ConnectionSource(
            LogicalRealTimeConnection(
                source=i,
                destinations=frozenset([(i + 3) % n]),
                period_slots=6,
                size_slots=1,
                phase_slots=i % 6,
            )
        )
        for i in range(n)
    ]


def test_e4_hp_access_latency_bounded(run_once, benchmark):
    n = 8

    def sweep():
        rows = []
        rng = np.random.default_rng(0)
        worst = 0
        for trial in range(30):
            release = int(rng.integers(5, 50))
            src = int(rng.integers(n))
            dst = int((src + 1 + rng.integers(n - 1)) % n)
            if dst == src:
                dst = (src + 1) % n
            probe = _Probe(src, dst, release)
            topology = RingTopology.uniform(n, 10.0)
            timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
            sim = Simulation(
                timing,
                CcrEdfProtocol(topology),
                sources=[probe] + background(n),
            )
            for _ in range(release + 5):
                sim.step()
            assert probe.message is not None
            assert probe.message.completed_slot is not None
            latency = probe.message.completed_slot - probe.message.created_slot
            worst = max(worst, latency)
        rows.append(("hp access latency (slots), 30 adversarial trials", worst, 2))
        return rows, worst

    rows, worst = run_once(sweep)
    print_table(
        "E4: most-urgent message access latency vs the 2-slot bound",
        ["quantity", "measured worst", "Eq.(4) slot bound"],
        rows,
    )
    assert worst <= 2
    benchmark.extra_info["worst_slots"] = worst


def test_e34_wall_clock_bounds_table(run_once, benchmark):
    def table():
        rows = []
        for n in (4, 8, 16):
            for link_m in (10.0, 100.0):
                timing = NetworkTiming(
                    topology=RingTopology.uniform(n, link_m),
                    link=FibreRibbonLink(),
                )
                t_lat = timing.worst_case_latency_s
                rows.append(
                    (
                        n,
                        link_m,
                        timing.slot_length_s * 1e6,
                        timing.max_handover_time_s * 1e9,
                        t_lat * 1e6,
                        timing.max_delay_s(1e-3) * 1e6,
                    )
                )
        return rows

    rows = run_once(table)
    print_table(
        "E3/E4: t_latency = 2*t_slot + t_handover_max; "
        "t_maxdelay = t_deadline + t_latency (deadline = 1 ms)",
        ["N", "L [m]", "t_slot [us]", "t_ho_max [ns]",
         "t_latency [us]", "t_maxdelay [us]"],
        rows,
    )
    benchmark.extra_info["configs"] = len(rows)


def test_e34_wcrt_per_connection(run_once, benchmark):
    """Per-connection worst-case response times (exact EDF analysis) vs
    the latencies a synchronous-release simulation actually produces --
    the fine-grained complement to the Eq. (4) system-level bound."""
    from repro.analysis.response_time import edf_worst_case_response_slots
    from repro.sim.runner import ScenarioConfig, run_scenario

    def measure():
        conns = [
            LogicalRealTimeConnection(
                source=i,
                destinations=frozenset([(i + 3) % 8]),
                period_slots=p,
                size_slots=e,
            )
            for i, (p, e) in enumerate([(6, 1), (8, 2), (12, 3), (24, 4)])
        ]
        config = ScenarioConfig(
            n_nodes=8, connections=tuple(conns), spatial_reuse=False
        )
        report = run_scenario(config, n_slots=20_000)
        rows = []
        for c in conns:
            wcrt = edf_worst_case_response_slots(conns, c.connection_id)
            observed = report.connection_stats(c.connection_id)
            rows.append(
                (
                    f"{c.period_slots}:{c.size_slots}",
                    c.size_slots + 1,
                    wcrt,
                    max(observed.latency_counts),
                    c.period_slots + 1,
                    observed.deadline_missed,
                )
            )
        return rows

    rows = run_once(measure)
    print_table(
        "E3/E4b: per-connection response times (U=0.79, synchronous)",
        ["P:e", "best case", "WCRT (exact)", "measured max",
         "deadline window", "missed"],
        rows,
    )
    for _, best, wcrt, measured, window, missed in rows:
        assert missed == 0
        assert best <= wcrt <= window
        # Quantised protocol EDF may exceed ideal WCRT by a bucket, but
        # never the window; typically it sits at or below the WCRT.
        assert measured <= window
    benchmark.extra_info["connections"] = len(rows)
