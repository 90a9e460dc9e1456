"""Fast-forward must be invisible in everything a run produces.

Idle spans: for any mixed periodic/Poisson workload, a run with
``fast_forward=True`` produces a :class:`SimulationReport` *equal* (full
dataclass equality, floats included) to the same run stepped slot by
slot.  Periodic sources advertise exact next-release slots, so idle
stretches are skipped; Poisson sources keep the conservative default and
suppress skipping entirely -- either way the report must not change.

Busy spans: while the pending plan's requests all keep their priorities,
each slot repeats the last until a release or the first delivery -- under
EDF with several grants and waiting requesters (until a waiting head's
laxity leaves its mapping bucket), break-denied ones included, under RM
and FIFO for a lone granted master.  A span may start at the slot that
pays a clock hand-over.  The property below draws multi-slot, multicast
and D<P connections under every policy and both built-in mappings, with
and without spatial reuse, advances in uneven ``run()`` chunks, and
compares report, queue state and pending plan with stepping after every
chunk -- and checks that busy spans, also with a waiting requester, from
a hand-over slot and through break denials, were actually taken.  The
pins fix the exact slots a span starts and ends at.

Span time: the float totals a span adds are computed a binade at a time
(``_repeated_sum``); a property pins them to the plain loop bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clocking import RoundRobinHandover
from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import LaxityMapping, LinearMapping
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.obs.events import EventDispatcher, JsonlEventLog
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation, _repeated_sum
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
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
    #: Laxity mapping; ``None`` is the default logarithmic one.
    mapping: LaxityMapping | None
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
    mapping = draw(
        st.none() | st.builds(LinearMapping, st.integers(1, 600))
    )
    chunks = draw(st.lists(st.integers(1, 150), min_size=1, max_size=6))
    return BusyWorkload(config, mapping, tuple(chunks))


def state(sim):
    """Everything a later slot can depend on, with message identities."""
    plan = sim.pending_plan
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


@dataclass(frozen=True)
class BusySpan:
    n_requests: int
    n_grants: int
    n_denied: int
    #: Whether the span's first slot paid a clock hand-over.
    handover: bool
    slots: int


def plan_fields(plan) -> tuple:
    """Every field of a pending plan, messages by identity."""
    return (
        plan.transmit_slot,
        plan.master,
        plan.gap_s,
        plan.n_requests,
        [(tx.node, tx.message.msg_id) for tx in plan.transmissions],
        [(tx.node, tx.message.msg_id) for tx in plan.denied_by_break],
        plan.arbitration,
        plan.collection_packet,
        plan.distribution_packet,
    )


def busy_spans(sim, spans=None) -> list[BusySpan]:
    """Record every busy span the engine takes from now on, into
    ``spans`` (a new list by default)."""
    if spans is None:
        spans = []
    forward = sim._try_fast_forward

    def recorded(end):
        plan = sim.pending_plan
        handover = plan.master != sim._prev_master or plan.gap_s != 0.0
        k = forward(end)
        if k and plan.transmissions:
            spans.append(
                BusySpan(
                    plan.n_requests,
                    len(plan.transmissions),
                    len(plan.denied_by_break),
                    handover,
                    k,
                )
            )
        return k

    sim._try_fast_forward = recorded
    return spans


def play(config, chunks, fast_forward, spans=None, **options):
    """Run ``config`` chunk by chunk on the oracle; state after each.

    ``spans``, a list, collects the busy spans taken (see
    :func:`busy_spans`).
    """
    with fresh_message_ids():
        sim = build_simulation(
            config,
            RunOptions(engine="python", fast_forward=fast_forward, **options),
        )
        if spans is not None:
            busy_spans(sim, spans)
        states = []
        for chunk in chunks:
            sim.run(chunk)
            states.append(state(sim))
    return states, sim


def waits(spans) -> bool:
    """Whether any of ``spans`` had a requester that was not granted."""
    return any(span.n_requests > span.n_grants for span in spans)


def hands_over(spans) -> bool:
    """Whether any of ``spans`` started at a slot paying a hand-over."""
    return any(span.handover for span in spans)


def denies(spans) -> bool:
    """Whether any of ``spans`` carried a break denial."""
    return any(span.n_denied for span in spans)


def spans_of(workload: BusyWorkload) -> list[BusySpan]:
    """Assert one workload spans invisibly; returns its busy spans."""
    spans: list[BusySpan] = []
    fast, _ = play(
        workload.config, workload.chunks, True, spans, mapping=workload.mapping
    )
    slow, _ = play(
        workload.config, workload.chunks, False, mapping=workload.mapping
    )
    assert fast == slow
    return spans


def stepped_slots(sim) -> list[int]:
    """Record the slot of every ``step()`` the engine takes from now on."""
    seen: list[int] = []
    step = sim.step

    def recorded():
        seen.append(sim.current_slot)
        return step()

    sim.step = recorded
    return seen


#: Node 0's 600-slot message (laxity 401) is granted and holds the clock;
#: node 1's 10-slot message (laxity 991 at slot 0) shares link 1->2 with
#: it and waits, its laxity shrinking by one per slot.
WAITING = ScenarioConfig(
    n_nodes=4,
    connections=(conn(0, [2], 1000, 600), conn(1, [3], 1000, 10)),
)


class TestBusySpans:
    def test_busy_spans_match_stepping(self):
        spanned: list[list[BusySpan]] = []

        # 600 examples: about one in ten takes a span with a waiting
        # requester and one in twenty a span through a break denial, so
        # the counts below have a wide margin.
        @settings(max_examples=600, deadline=None)
        @given(busy_workloads())
        def check(workload):
            spanned.append(spans_of(workload))

        check()
        # Not vacuous: the drawn workloads did take busy spans, also
        # spans that a losing requester waited through, spans from a
        # hand-over slot and spans through break denials.
        assert sum(1 for spans in spanned if spans) >= 10
        assert sum(1 for spans in spanned if waits(spans)) >= 10
        assert sum(1 for spans in spanned if hands_over(spans)) >= 10
        assert sum(1 for spans in spanned if denies(spans)) >= 10

    def test_lone_master_repeats_until_the_slot_before_delivery(self):
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(1, [3], 400, 120, phase=5),)
        )
        profiler = PhaseProfiler()
        (fast,), sim = play(config, [400], True, profiler=profiler)
        (slow,), _ = play(config, [400], False)
        assert fast == slow
        # Released at 5, the clock moves to node 1 for slot 6, which
        # pays the hand-over and starts the span; slots 7..124 repeat
        # and 125 delivers the last packet and is stepped.
        assert profiler.counters["busy_forwarded_slots"] == 119
        assert sim.report.class_stats(TrafficClass.RT_CONNECTION).delivered == 1
        assert sim.report.busy_slots == sim.report.packets_sent == 120

    def test_spanned_plan_keeps_every_field(self):
        """A busy span leaves the pending plan stepping leaves, the traced
        arbitration record and packets included: re-dated, and after a
        span from a hand-over slot with the kept master's zero gap.  A
        traced plan that hands over is stepped, since the hand-over
        slot's round records a different master."""
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(1, [3], 400, 120, phase=5),)
        )
        for trace_packets in (False, True):
            spanned: dict[int, tuple] = {}
            handovers = []
            with fresh_message_ids():
                sim = build_simulation(config, RunOptions(engine="python"))
                sim.protocol.trace_packets = trace_packets
                forward = sim._try_fast_forward

                def recorded(end, sim=sim, forward=forward):
                    before = sim.pending_plan
                    k = forward(end)
                    if k and before.transmissions:
                        handovers.append(before.gap_s != 0.0)
                        after = sim.pending_plan
                        assert after.gap_s == 0.0
                        spanned[after.transmit_slot] = plan_fields(after)
                    return k

                sim._try_fast_forward = recorded
                sim.run(200)
            stepped = {}
            with fresh_message_ids():
                slow = build_simulation(
                    config, RunOptions(engine="python", fast_forward=False)
                )
                slow.protocol.trace_packets = trace_packets
                for _ in range(200):
                    slow.step()
                    if slow.current_slot in spanned:
                        plan = slow.pending_plan
                        stepped[slow.current_slot] = plan_fields(plan)
            assert spanned and stepped == spanned
            assert any(handovers) is not trace_packets

    def test_two_grant_plan_spans_until_the_slot_before_delivery(self):
        # Two nodes sharing the ring through spatial reuse, both granted
        # every slot at a constant laxity: slots 1..99 repeat, and slot
        # 100 delivers both messages and is stepped.
        config = ScenarioConfig(
            n_nodes=6,
            connections=(conn(0, [1], 300, 100), conn(3, [4], 300, 100)),
        )
        profiler = PhaseProfiler()
        (fast,), sim = play(config, [250], True, profiler=profiler)
        (slow,), _ = play(config, [250], False)
        assert fast == slow
        assert sim.report.packets_sent == 200
        assert profiler.counters["busy_forwarded_slots"] == 99

    def test_fifo_two_grant_plans_are_stepped(self):
        # FIFO's priority is the message age, so the granted heads' own
        # priorities move every slot: only a lone requester spans.
        config = ScenarioConfig(
            n_nodes=6,
            policy="fifo",
            connections=(conn(0, [1], 300, 100), conn(3, [4], 300, 100)),
        )
        profiler = PhaseProfiler()
        (fast,), sim = play(config, [250], True, profiler=profiler)
        (slow,), _ = play(config, [250], False)
        assert fast == slow
        assert sim.report.packets_sent == 200
        assert "busy_forwarded_slots" not in profiler.counters

    def test_waiting_head_bucket_crossing_ends_the_span(self):
        # Both mappings in one test: a bound memoised across protocols
        # (keyed by priority and class only) would carry one mapping's
        # buckets into the other's run.
        cases = [
            # Logarithmic: laxity 991 sits in [511, 1022]; slot 481
            # arbitrates laxity 510 and is stepped.  [255, 510] outlasts
            # node 0's delivery in slot 600, after which node 1 takes the
            # clock: the hand-over slot 601 starts a span, and slot 610
            # delivers node 1's message.
            (None, [0, 481, 600, 610]),
            # Linear over 1 500 slots: buckets of 100 laxities, left in
            # slots 92, 192, ..., 592 -- where node 1's level overtakes
            # node 0's and the clock moves.  The hand-over slot 593 is
            # spanned alone: node 0, denied at the break from then on,
            # leaves its bucket in the next arbitration.
            (
                LinearMapping(horizon_slots=1500),
                [0, 92, 192, 292, 392, 492, 592, 594],
            ),
        ]
        for mapping, expected in cases:
            with fresh_message_ids():
                sim = build_simulation(
                    WAITING, RunOptions(engine="python", mapping=mapping)
                )
                seen = stepped_slots(sim)
                spans = busy_spans(sim)
                sim.run(1000)
                fast = state(sim)
            (slow,), _ = play(WAITING, [1000], False, mapping=mapping)
            assert fast == slow
            assert seen[: len(expected)] == expected
            assert waits(spans)

    def test_span_from_a_handover_slot_matches_stepping(self, tmp_path):
        # Released at 0, the clock moves to node 1 for slot 1, which pays
        # the gap and starts the span; 120 delivers and is stepped.
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(1, [3], 400, 120),)
        )
        spans: list[BusySpan] = []
        fast, fast_log = logged_play(tmp_path, config, 121, True, spans)
        slow, slow_log = logged_play(tmp_path, config, 121, False)
        assert fast == slow
        assert fast_log == slow_log
        assert spans == [BusySpan(1, 1, 0, True, 119)]
        report = fast[1]
        assert report.gap_time_s > 0.0
        assert report.handover_hops == {0: 120, 1: 1}
        assert b'"handover"' in fast_log

    def test_span_through_break_denials_matches_stepping(self, tmp_path):
        # Node 0 holds the clock for its 600-slot message; node 3's path
        # 3->0->1 crosses node 0's clock break, so every arbitration
        # denies it until node 0 delivers in slot 600.
        config = ScenarioConfig(
            n_nodes=4,
            connections=(conn(0, [2], 1000, 600), conn(3, [1], 1000, 10)),
        )
        spans: list[BusySpan] = []
        fast, fast_log = logged_play(tmp_path, config, 601, True, spans)
        slow, slow_log = logged_play(tmp_path, config, 601, False)
        assert fast == slow
        assert fast_log == slow_log
        assert denies(spans)
        assert sum(span.slots for span in spans) > 590
        assert fast[1].break_denials == 600
        assert fast_log.count(b'"arbitration"') == 600

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
            plan = sim.pending_plan
            (tx,) = plan.transmissions
            assert plan.n_requests == 1 and tx.node == plan.master == 1
            assert tx.message.remaining_slots >= 2
            Simulation.run(sim, 340)
            fast = state(sim)
        (slow,), _ = play(config, [400], False)
        assert fast == slow
        assert profiler.counters["busy_forwarded_slots"] > 0

    def test_vector_to_oracle_handover_with_a_waiting_requester(self):
        with fresh_message_ids():
            sim = build_simulation(WAITING, RunOptions(engine="vector"))
            sim.run(100)
            assert sim.vector_backend is not None
            plan = sim.pending_plan
            assert plan.n_requests == 2
            assert [tx.node for tx in plan.transmissions] == [0]
            seen = stepped_slots(sim)
            Simulation.run(sim, 900)
            fast = state(sim)
        (slow,), _ = play(WAITING, [1000], False)
        assert fast == slow
        # The kernel arbitrated slot 99 at node 1's laxity 892, still in
        # [511, 1022]: the oracle spans 100..480 and steps the crossing,
        # then spans node 1's message from its hand-over slot 601.
        assert seen[:3] == [481, 600, 610]

    def test_compiled_fold_refill_is_collected_on_the_next_step(self):
        if ckernel._kernel_fn() is None:
            pytest.skip("no C toolchain; compiled tier unavailable")
        config = ScenarioConfig(
            n_nodes=4, connections=(conn(2, [0], 200, 30, phase=50),)
        )
        with fresh_message_ids():
            sim = build_simulation(config, RunOptions(engine="vector"))
            for _ in range(10):
                sim.step()
            # The oracle's collection phase saw node 2's queue empty.
            idle = sim.queues[2]
            assert idle._head_valid and idle._cached_head is None
            # The kernel releases at 50 and hands back a half-sent message.
            sim.run(60)
            assert sim.vector_backend == "compiled"
            sim.step()
            assert [tx.node for tx in sim.pending_plan.transmissions] == [2]
            Simulation.run(sim, 129)
            fast = state(sim)
        (slow,), _ = play(config, [200], False)
        assert fast == slow

    def test_event_log_slot_records_equal_stepped_ones(self, tmp_path):
        config = ScenarioConfig(
            n_nodes=5,
            connections=(
                conn(0, [2, 3], 200, 60),
                conn(4, [1], 150, 30, phase=70, deadline=100),
                conn(2, [3], 90, 2, phase=11),
            ),
        )
        profiler = PhaseProfiler()
        chunks = [173, 400, 27]
        fast = event_log(tmp_path, config, chunks, True, profiler=profiler)
        slow = event_log(tmp_path, config, chunks, False)
        assert profiler.counters["busy_forwarded_slots"] > 100
        assert any('"fast_forward"' in line for line in fast)
        # Busy spans log every slot; only idle spans are collapsed.
        assert spelled_out(fast) == slow

    def test_event_log_of_multi_requester_spans_equals_stepped_one(
        self, tmp_path
    ):
        # WAITING on a wider ring, plus node 3 granted alongside node 0.
        config = dataclasses.replace(
            WAITING,
            n_nodes=6,
            connections=WAITING.connections
            + (conn(3, [4], 500, 100, phase=20),),
        )
        spans: list[BusySpan] = []
        chunks = [173, 400, 427]
        fast = event_log(tmp_path, config, chunks, True, spans=spans)
        slow = event_log(tmp_path, config, chunks, False)
        assert waits(spans)
        assert any(span.n_grants > 1 for span in spans)
        assert spelled_out(fast) == slow


def logged_play(tmp_path, config, n_slots, fast_forward: bool, spans=None):
    """State after ``n_slots`` of ``config`` and the JSONL bytes logged."""
    path = tmp_path / f"ff{int(fast_forward)}.jsonl"
    observer = EventDispatcher()
    observer.add_sink(JsonlEventLog(path))
    (after,), _ = play(config, [n_slots], fast_forward, spans, observer=observer)
    observer.close()
    return after, path.read_bytes()


def event_log(tmp_path, config, chunks, fast_forward: bool, **play_options):
    """The JSONL lines a chunked play of ``config`` writes."""
    path = tmp_path / f"ff{int(fast_forward)}.jsonl"
    observer = EventDispatcher()
    observer.add_sink(JsonlEventLog(path))
    play(config, chunks, fast_forward, observer=observer, **play_options)
    observer.close()
    return path.read_text().splitlines()


# ----------------------------------------------------------------------
# Span time: a binade at a time, bit for bit.
# ----------------------------------------------------------------------


def plain_sum(x: float, c: float, k: int) -> float:
    for _ in range(k):
        x += c
    return x


@st.composite
def repeated_sums(draw):
    """``(x, c, k)``: from zero, near a binade top, or on a rounding tie."""
    kind = draw(st.sampled_from(["zero", "any", "crossing", "tie"]))
    k = draw(st.integers(0, 3_000) | st.integers(0, 10**6))
    c = draw(st.floats(1e-9, 10.0))
    if kind == "zero":
        return 0.0, c, k
    x = draw(st.floats(1e-6, 1e3))
    if kind == "crossing":
        # A few increments below the top of x's binade.
        top = 2.0 ** math.frexp(x)[1]
        x = max(top - draw(st.integers(1, 64)) * c, 0.0)
    elif kind == "tie":
        # c an odd multiple of half an ulp of x: x + c is a rounding tie.
        c = (2 * draw(st.integers(0, 2**24)) + 1) * math.ulp(x) / 2
    return x, c, k


class TestRepeatedSum:
    @settings(max_examples=300, deadline=None)
    @given(repeated_sums())
    @example((0.0, 1.0e-6, 10**6))
    @example((1.0, 2.0**-53, 10**6))  # a tie that rounds back to x
    @example((1.0 + 2.0**-52, 3 * 2.0**-53, 1_000))  # odd x, tie
    @example((0.5 - 2.0**-54, 2.0**-54, 3))  # the step onto the top
    def test_equals_the_plain_loop(self, case):
        x, c, k = case
        assert _repeated_sum(x, c, k) == plain_sum(x, c, k)
