"""Fast-forward must be invisible in everything a run produces.

Idle spans: for any mixed periodic/Poisson workload, a run with
``fast_forward=True`` produces a :class:`SimulationReport` *equal* (full
dataclass equality, floats included) to the same run stepped slot by
slot.  Periodic sources advertise exact next-release slots, so idle
stretches are skipped; Poisson sources keep the conservative default and
suppress skipping entirely -- either way the report must not change.

Busy spans: while the master is the only requester and is granted, each
slot repeats the last until a release or the delivery.  The property
below draws multi-slot, multicast and D<P connections under every policy,
with and without spatial reuse, advances in uneven ``run()`` chunks, and
compares report, queue state and pending plan with stepping after every
chunk -- and checks that busy spans were actually taken.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocking import RoundRobinHandover
from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.obs.events import EventDispatcher, JsonlEventLog
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.traffic.periodic import ConnectionSource
from repro.traffic.poisson import PoissonSource
from tests.sim.test_release_calendar import spelled_out
from tests.sim.vector.test_differential import fresh_message_ids

N_SLOTS = 300


@st.composite
def workloads(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    n_conns = draw(st.integers(min_value=0, max_value=4))
    conns = []
    for _ in range(n_conns):
        src = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_nodes - 1).filter(
                lambda d, s=src: d != s
            )
        )
        period = draw(st.integers(min_value=5, max_value=80))
        phase = draw(st.integers(min_value=0, max_value=120))
        conns.append(
            LogicalRealTimeConnection(
                source=src,
                destinations=frozenset([dst]),
                period_slots=period,
                size_slots=1,
                phase_slots=phase,
            )
        )
    poisson_rate = draw(
        st.sampled_from([0.0, 0.0, 0.01, 0.1])
    )  # mostly periodic-only, so skipping actually happens
    poisson_seed = draw(st.integers(min_value=0, max_value=2**16))
    drop_late = draw(st.booleans())
    return n_nodes, tuple(conns), poisson_rate, poisson_seed, drop_late


def _build(workload, fast_forward: bool):
    n_nodes, conns, poisson_rate, poisson_seed, drop_late = workload
    config = ScenarioConfig(
        n_nodes=n_nodes,
        protocol="ccr-edf",
        connections=conns,
        drop_late=drop_late,
    )
    extra = []
    if poisson_rate > 0:
        extra.append(
            PoissonSource(
                node=0,
                n_nodes=n_nodes,
                rate_per_slot=poisson_rate,
                traffic_class=TrafficClass.BEST_EFFORT,
                relative_deadline_slots=40,
                rng=np.random.default_rng(poisson_seed),
            )
        )
    return build_simulation(
        config, RunOptions(extra_sources=extra, fast_forward=fast_forward)
    )


class TestFastForwardEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(workloads())
    def test_report_equals_slot_by_slot(self, workload):
        fast = _build(workload, fast_forward=True).run(N_SLOTS)
        slow = _build(workload, fast_forward=False).run(N_SLOTS)
        assert fast == slow

    def test_fast_forward_enabled_for_edf(self):
        sim = _build((4, (), 0.0, 0, False), fast_forward=True)
        assert sim.fast_forward

    def test_fast_forward_disabled_for_rotating_masters(self):
        config = ScenarioConfig(n_nodes=4, protocol="tdma")
        sim = build_simulation(config, RunOptions(fast_forward=True))
        assert not sim.fast_forward

    def test_idle_ring_skips_to_end(self):
        conn = LogicalRealTimeConnection(
            source=0,
            destinations=frozenset([1]),
            period_slots=10_000,
            size_slots=1,
            phase_slots=9_000,
        )
        config = ScenarioConfig(n_nodes=4, connections=(conn,))
        sim = build_simulation(config)
        report = sim.run(500)
        assert report.slots_simulated == 500
        # Master never moved; every slot kept the clock with zero gap.
        assert report.handover_hops == {0: 500}
        assert report.gap_time_s == 0.0


# ----------------------------------------------------------------------
# Busy spans.
# ----------------------------------------------------------------------


def conn(source, dsts, period, size, phase=0, deadline=None):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset(dsts),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
        deadline_slots=deadline,
    )


@dataclass(frozen=True)
class BusyWorkload:
    config: ScenarioConfig
    #: Slots per ``run()`` call of the fast-forwarding play.
    chunks: tuple[int, ...]


@st.composite
def busy_workloads(draw):
    n_nodes = draw(st.integers(3, 8))
    conns = []
    for _ in range(draw(st.integers(1, 4))):
        src = draw(st.integers(0, n_nodes - 1))
        others = [node for node in range(n_nodes) if node != src]
        dsts = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3))
        period = draw(st.integers(10, 150))
        size = draw(st.integers(1, min(period, 40)))
        deadline = draw(st.none() | st.integers(size, period))
        phase = draw(st.integers(0, 100))
        conns.append(conn(src, dsts, period, size, phase, deadline))
    config = ScenarioConfig(
        n_nodes=n_nodes,
        policy=draw(st.sampled_from(["edf", "rm", "fifo"])),
        spatial_reuse=draw(st.booleans()),
        connections=tuple(conns),
    )
    chunks = draw(st.lists(st.integers(1, 150), min_size=1, max_size=6))
    return BusyWorkload(config, tuple(chunks))


def state(sim):
    """Everything a later slot can depend on, with message identities."""
    plan = sim._plan
    queues = {
        node: sorted(
            (m.msg_id, m.sent_slots, m.status) for m in q.pending_messages()
        )
        for node, q in sim.queues.items()
    }
    pending = (
        plan.transmit_slot,
        plan.master,
        plan.gap_s,
        plan.n_requests,
        [(tx.node, tx.message.msg_id) for tx in plan.transmissions],
        [(tx.node, tx.message.msg_id) for tx in plan.denied_by_break],
    )
    return sim.current_slot, copy.deepcopy(sim.report), queues, pending


def play(config, chunks, fast_forward, **options):
    """Run ``config`` chunk by chunk on the oracle; state after each."""
    with fresh_message_ids():
        sim = build_simulation(
            config,
            RunOptions(engine="python", fast_forward=fast_forward, **options),
        )
        states = []
        for chunk in chunks:
            sim.run(chunk)
            states.append(state(sim))
    return states, sim


def busy_slots_spanned(workload: BusyWorkload) -> int:
    """Assert one workload spans invisibly; returns its busy-span slots."""
    profiler = PhaseProfiler()
    fast, _ = play(workload.config, workload.chunks, True, profiler=profiler)
    slow, _ = play(workload.config, workload.chunks, False)
    assert fast == slow
    return profiler.counters["busy_forwarded_slots"]


def stepped_slots(sim) -> list[int]:
    """Record the slot of every ``step()`` the engine takes from now on."""
    seen: list[int] = []
    step = sim.step

    def recorded():
        seen.append(sim.current_slot)
        return step()

    sim.step = recorded
    return seen


class TestBusySpans:
    def test_busy_spans_match_stepping(self):
        spanned: list[int] = []

        @settings(max_examples=200, deadline=None)
        @given(busy_workloads())
        def check(workload):
            spanned.append(busy_slots_spanned(workload))

        check()
        # Not vacuous: the drawn workloads did take busy spans.
        assert sum(spanned) > 0
        assert sum(1 for k in spanned if k) >= 10

    def test_lone_master_repeats_until_the_slot_before_delivery(self):
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(1, [3], 400, 120, phase=5),)
        )
        profiler = PhaseProfiler()
        (fast,), sim = play(config, [400], True, profiler=profiler)
        (slow,), _ = play(config, [400], False)
        assert fast == slow
        # Released at 5, the clock moves to node 1 for slot 6, and slots
        # 7..124 repeat; 125 delivers the last packet and is stepped.
        assert profiler.counters["busy_forwarded_slots"] == 118
        assert sim.report.class_stats(TrafficClass.RT_CONNECTION).delivered == 1
        assert sim.report.busy_slots == sim.report.packets_sent == 120

    def test_multi_requester_plans_are_stepped(self):
        # Two nodes sharing the ring through spatial reuse: both granted
        # every slot, but a span needs a lone requester.
        config = ScenarioConfig(
            n_nodes=6,
            connections=(conn(0, [1], 300, 100), conn(3, [4], 300, 100)),
        )
        profiler = PhaseProfiler()
        (fast,), sim = play(config, [250], True, profiler=profiler)
        (slow,), _ = play(config, [250], False)
        assert fast == slow
        assert sim.report.packets_sent == 200
        assert profiler.counters["busy_forwarded_slots"] == 0

    def test_release_landing_mid_span_is_stepped(self):
        config = ScenarioConfig(
            n_nodes=4,
            connections=(
                conn(0, [2], 1000, 100),
                conn(3, [1], 1000, 1, phase=40),
            ),
        )
        with fresh_message_ids():
            sim = build_simulation(config, RunOptions(engine="python"))
            seen = stepped_slots(sim)
            sim.run(200)
            fast = state(sim)
        (slow,), _ = play(config, [200], False)
        assert fast == slow
        # Slot 0 releases and plans the lone grant; 1..39 repeat; the
        # release due at 40 ends the span and is stepped.
        assert seen[:2] == [0, 40]

    def test_round_robin_handover_never_spans(self):
        topology = RingTopology.uniform(4, 10.0)
        sim = Simulation(
            NetworkTiming(topology=topology, link=FibreRibbonLink()),
            CcrEdfProtocol(topology, handover=RoundRobinHandover()),
            sources=[ConnectionSource(conn(1, [3], 400, 120))],
            profiler=PhaseProfiler(),
        )
        seen = stepped_slots(sim)
        sim.run(300)
        assert seen == list(range(300))
        assert "busy_forwarded_slots" not in sim.profiler.counters

    def test_vector_to_oracle_handover_with_busy_pending_plan(self):
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(1, [3], 400, 120, phase=5),)
        )
        profiler = PhaseProfiler()
        with fresh_message_ids():
            sim = build_simulation(
                config, RunOptions(engine="vector", profiler=profiler)
            )
            sim.run(60)
            assert sim.vector_backend is not None
            plan = sim._plan
            (tx,) = plan.transmissions
            assert plan.n_requests == 1 and tx.node == plan.master == 1
            assert tx.message.remaining_slots >= 2
            Simulation.run(sim, 340)
            fast = state(sim)
        (slow,), _ = play(config, [400], False)
        assert fast == slow
        assert profiler.counters["busy_forwarded_slots"] > 0

    def test_event_log_slot_records_equal_stepped_ones(self, tmp_path):
        config = ScenarioConfig(
            n_nodes=5,
            connections=(
                conn(0, [2, 3], 200, 60),
                conn(4, [1], 150, 30, phase=70, deadline=100),
                conn(2, [3], 90, 2, phase=11),
            ),
        )

        def log(fast_forward: bool, profiler=None) -> list[str]:
            path = tmp_path / f"ff{int(fast_forward)}.jsonl"
            observer = EventDispatcher()
            observer.add_sink(JsonlEventLog(path))
            play(
                config,
                [173, 400, 27],
                fast_forward,
                observer=observer,
                profiler=profiler,
            )
            observer.close()
            return path.read_text().splitlines()

        profiler = PhaseProfiler()
        fast = log(True, profiler)
        slow = log(False)
        assert profiler.counters["busy_forwarded_slots"] > 100
        assert any('"fast_forward"' in line for line in fast)
        # Busy spans log every slot; only idle spans are collapsed.
        assert spelled_out(fast) == slow
