"""The release calendar must be invisible in everything a run produces.

The engine polls a source only in the slot its calendar entry names;
sources that cannot name one sit on an always-poll list.  The
differential here plays each scenario twice -- as built (connection
sources on the heap), and with every source hidden behind an opaque
wrapper that keeps the conservative ``next_release_slot`` default, so it
lands on the always-poll list, is polled in every executed slot and
vetoes fast-forward: the seed engine's behaviour.  The two
``SimulationReport``s must be equal (floats included) and the two JSONL
event streams equal once each ``fast_forward`` span is spelled out as
the idle slots it stands for.

Below the differential: pins on the poll *count* (the point of the
calendar), on late-bound instance wrappers (the e2e tracer relies on
them) and on the read-only ``sources`` view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.obs.events import EventDispatcher, EventSink
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.services.api import MessageInjector
from repro.sim.engine import Simulation
from repro.sim.fault_models import ScriptedNodeOutages
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector.engine import VectorSimulation
from repro.traffic.base import CompositeSource, TrafficSource
from repro.traffic.periodic import ConnectionSource, random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation
from tests.sim.vector.test_differential import fresh_message_ids

# ----------------------------------------------------------------------
# The opaque twin of a source: same releases, no release prediction.
# ----------------------------------------------------------------------


class Opaque(TrafficSource):
    """Forwards polls; keeps the conservative ``next_release_slot``."""

    def __init__(self, inner: TrafficSource):
        self.inner = inner
        self.node = inner.node

    def messages_for_slot(self, slot):
        return self.inner.messages_for_slot(slot)


class OpaqueConnection(ConnectionSource):
    """Still a ``ConnectionSource`` (``detach_connection_source`` finds
    it by type), but with the base class's ``next_release_slot`` back in
    place, so the engine files it under always-poll."""

    next_release_slot = TrafficSource.next_release_slot


def opaque(source: TrafficSource) -> TrafficSource:
    if isinstance(source, ConnectionSource):
        return OpaqueConnection(
            source.connection, source.active_from, source.active_until
        )
    return Opaque(source)


# ----------------------------------------------------------------------
# Scenarios as plain data, so each can be played twice.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """One source: a windowed connection, optionally sharing a
    ``CompositeSource`` with a ``MessageInjector`` that is fed
    ``(slot, destination)`` submissions."""

    connection: LogicalRealTimeConnection
    active_from: int = 0
    active_until: int | None = None
    submits: tuple[tuple[int, int], ...] | None = None
    #: Opaque in *both* plays: a genuinely always-polled source whose
    #: releases must interleave with the heap's in attachment order.
    always_polled: bool = False


@dataclass(frozen=True)
class Scenario:
    n_nodes: int
    members: tuple[Member, ...]
    n_slots: int
    #: ``(slot, member)``: attached when the run reaches ``slot``.
    attach: tuple[tuple[int, Member], ...] = ()
    #: ``(slot, connection_id)``: detached when the run reaches ``slot``.
    detach: tuple[tuple[int, int], ...] = ()
    #: ``node -> ((down, up), ...)`` scripted fail-stop windows.
    outages: tuple[tuple[int, tuple[tuple[int, int | None], ...]], ...] = ()
    #: ``(slot, mode)``: from ``slot`` on, advance by oracle ``run()``
    #: (fast-forwarding), by ``step()``, or on the vector ``kernel``.
    modes: tuple[tuple[int, str], ...] = ((0, "run"),)


class JsonLines(EventSink):
    """Collects the JSONL form of every event, in memory."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, event) -> None:
        self.lines.append(event.to_json())


def spelled_out(lines: list[str]) -> list[str]:
    """The stream with each fast-forward span as its idle slot lines."""
    out = []
    for line in lines:
        if '"fast_forward"' not in line:
            out.append(line)
            continue
        span = json.loads(line)
        assert span["slot_end"] - span["slot_start"] == span["n_slots"] > 0
        out.extend(
            f'{{"kind":"slot","slot":{slot},"master":{span["master"]}}}'
            for slot in range(span["slot_start"], span["slot_end"])
        )
    return out


def play(scenario: Scenario, wrap: bool):
    """Run ``scenario``; returns ``(report, event lines, simulation)``."""
    with fresh_message_ids():
        sink = JsonLines()
        agenda: dict[int, list] = {}

        def at(slot: int, action) -> None:
            agenda.setdefault(slot, []).append(action)

        def source_of(member: Member) -> TrafficSource:
            source: TrafficSource = ConnectionSource(
                member.connection, member.active_from, member.active_until
            )
            if member.submits is not None:
                injector = MessageInjector(source.node)
                for slot, dst in member.submits:
                    at(
                        slot,
                        lambda sim, i=injector, d=dst: i.submit(
                            [d], relative_deadline_slots=50
                        ),
                    )
                source = CompositeSource(source.node, [source, injector])
            return opaque(source) if wrap or member.always_polled else source

        topology = RingTopology.uniform(scenario.n_nodes, 10.0)
        sim = VectorSimulation(
            NetworkTiming(topology=topology, link=FibreRibbonLink()),
            CcrEdfProtocol(topology),
            sources=[source_of(m) for m in scenario.members],
            faults=(
                ScriptedNodeOutages(dict(scenario.outages))
                if scenario.outages
                else None
            ),
            observer=EventDispatcher((sink,)),
        )
        for slot, member in scenario.attach:
            at(slot, lambda sim, m=member: sim.attach_source(source_of(m)))
        for slot, cid in scenario.detach:
            at(slot, lambda sim, c=cid: sim.detach_connection_source(c))
        mode = "run"
        for slot, new_mode in scenario.modes:
            at(slot, new_mode)

        def advance(k: int) -> None:
            if k == 0:
                return
            if mode == "kernel":
                sim.run(k)
            elif mode == "step":
                for _ in range(k):
                    sim.step()
            else:
                Simulation.run(sim, k)

        for slot in sorted(s for s in agenda if s < scenario.n_slots):
            advance(slot - sim.current_slot)
            for action in agenda[slot]:
                if isinstance(action, str):
                    mode = action
                else:
                    action(sim)
        advance(scenario.n_slots - sim.current_slot)
        assert sim.current_slot == scenario.n_slots
        return sim.report, sink.lines, sim


def assert_calendar_invisible(scenario: Scenario):
    report, events, sim = play(scenario, wrap=False)
    ref_report, ref_events, ref = play(scenario, wrap=True)
    # The reference really is the always-poll engine.
    if ref._calendar is not None:
        assert ref._calendar == []
        assert [e[2] for e in ref._always_poll] == list(ref.sources)
    assert report == ref_report
    # (The reference skips too once its last source is detached.)
    assert spelled_out(events) == spelled_out(ref_events)
    return sim, events


# ----------------------------------------------------------------------
# Hypothesis differential.
# ----------------------------------------------------------------------


@st.composite
def members(draw, n_nodes: int, earliest: int = 0, composite: bool = True):
    src = draw(st.integers(0, n_nodes - 1))
    dst = draw(st.integers(0, n_nodes - 2))
    if dst >= src:
        dst += 1
    # Few distinct periods and phases: same-slot ties are the rule.
    period = draw(st.sampled_from([2, 3, 5, 12, 30, 64]))
    connection = LogicalRealTimeConnection(
        source=src,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=draw(st.integers(1, min(2, period))),
        phase_slots=draw(st.sampled_from([0, 0, 1, 7, 30, 90])),
    )
    active_from = earliest + draw(st.sampled_from([0, 0, 1, 13, 60]))
    active_until = draw(
        st.none() | st.integers(active_from, active_from + 120)
    )
    submits = None
    if composite and draw(st.integers(0, 3)) == 0:
        submits = tuple(
            (slot, dst)
            for slot in draw(st.lists(st.integers(0, 199), max_size=4))
        )
    always_polled = draw(st.integers(0, 4)) == 0
    return Member(connection, active_from, active_until, submits, always_polled)


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(3, 6))
    n_slots = 200
    first = tuple(draw(st.lists(members(n_nodes), min_size=1, max_size=6)))
    attach = tuple(
        (slot, draw(members(n_nodes, earliest=slot)))
        for slot in draw(st.lists(st.integers(1, n_slots - 1), max_size=3))
    )
    plain = [m for m in first + tuple(m for _, m in attach) if not m.submits]
    detach = ()
    if plain:
        detach = tuple(
            (draw(st.integers(1, n_slots - 1)), m.connection.connection_id)
            for m in draw(
                st.lists(st.sampled_from(plain), max_size=2, unique=True)
            )
        )
    outages = ()
    if draw(st.booleans()):
        # Fail a node in a slot one of its own sources is due.
        victim = draw(st.sampled_from(first)).connection
        down = victim.phase_slots + victim.period_slots * draw(st.integers(0, 8))
        up = draw(st.none() | st.integers(down + 1, down + 40))
        outages = ((victim.source, ((down, up),)),)
    modes = tuple(
        (slot, draw(st.sampled_from(["run", "step", "kernel"])))
        for slot in sorted(
            draw(st.lists(st.integers(0, n_slots - 1), max_size=4, unique=True))
        )
    )
    return Scenario(n_nodes, first, n_slots, attach, detach, outages, modes)


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_calendar_matches_always_poll(scenario):
    assert_calendar_invisible(scenario)


# ----------------------------------------------------------------------
# One hand-built scenario per named hazard (the property above finds
# these too; here each is guaranteed to run, and to bite).
# ----------------------------------------------------------------------


def conn(source=0, dst=2, period=10, size=1, phase=0):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
    )


def released(report) -> int:
    return report.class_stats(TrafficClass.RT_CONNECTION).released


def test_active_windows():
    scenario = Scenario(
        4,
        (
            Member(conn(0, 2, 40, phase=5), active_from=100, active_until=300),
            Member(conn(1, 3, 64), active_until=65),
            Member(conn(2, 0, 30, phase=7), active_from=37, active_until=37),
        ),
        400,
    )
    sim, events = assert_calendar_invisible(scenario)
    # 125..285 every 40; 0 and 64; the empty window releases nothing.
    assert released(sim.report) == 5 + 2
    assert any('"fast_forward"' in line for line in events)
    # The two closed windows fell off the calendar.
    assert len(sim._calendar) == 0


def test_mid_run_attach_and_detach():
    late = Member(conn(1, 3, 25, phase=3), active_from=150)
    first = Member(conn(0, 2, 40))
    scenario = Scenario(
        4,
        (first, Member(conn(2, 0, 90, phase=10))),
        400,
        attach=((150, late),),
        detach=((200, first.connection.connection_id),),
    )
    sim, _ = assert_calendar_invisible(scenario)
    assert len(sim.sources) == 2 and len(sim._calendar) == 2
    # 0..160 of the detached one, 10..370 step 90, 153..378 step 25.
    assert released(sim.report) == 5 + 5 + 10


def test_node_fails_in_the_slot_its_source_is_due():
    scenario = Scenario(
        4,
        (Member(conn(1, 3, 20)), Member(conn(2, 0, 20, phase=5))),
        200,
        outages=((1, ((60, 101),)),),
    )
    sim, _ = assert_calendar_invisible(scenario)
    # Node 1 misses its releases at 60, 80, 100 and is back for 120.
    assert released(sim.report) == (10 - 3) + 10


def test_composite_of_connection_and_injector():
    scenario = Scenario(
        4,
        (
            Member(conn(0, 2, 50, phase=4), submits=((0, 1), (77, 3), (77, 2))),
            Member(conn(1, 3, 70)),
        ),
        300,
    )
    sim, events = assert_calendar_invisible(scenario)
    be = sim.report.class_stats(TrafficClass.BEST_EFFORT)
    assert be.released == be.delivered == 3
    # An empty injector sleeps, so idle stretches are skipped; each
    # submit wakes the composite for the next slot (else the 77 pair
    # would wait for the connection's release at 104 and the
    # differential above would fail).
    assert any('"fast_forward"' in line for line in events)
    assert sim.report.class_stats(TrafficClass.BEST_EFFORT).mean_latency_slots < 10


def test_same_slot_same_node_releases_keep_attach_order():
    # Sources on node 0 all due at 0, 30, 60...  The later-attached ones
    # have the *smaller* periods, and one in the middle is always-polled,
    # so anything but "merge by attachment order" mints this slot's
    # message ids -- and the queue's FIFO tie-break -- in another order.
    scenario = Scenario(
        3,
        (
            Member(conn(0, 1, 30)),
            Member(conn(0, 2, 30), always_polled=True),
            Member(conn(0, 1, 15)),
            Member(conn(0, 2, 10)),
        ),
        240,
        attach=((60, Member(conn(0, 1, 30), active_from=60)),),
    )
    sim, _ = assert_calendar_invisible(scenario)
    assert len(sim._always_poll) == 1 and len(sim._calendar) == 4


def test_vector_to_oracle_continuation_tolerates_stale_entries():
    scenario = Scenario(
        4,
        (
            Member(conn(0, 2, 40, phase=3)),
            Member(conn(1, 3, 64, phase=9)),
            Member(conn(2, 0, 30), active_until=100),
        ),
        600,
        modes=((0, "step"), (20, "kernel"), (300, "run"), (500, "step")),
    )
    sim, events = assert_calendar_invisible(scenario)
    assert sim.vector_slots == 280
    # Slot 300 is idle, so the oracle resumes with a fast-forward probe;
    # bringing the stale entries up to date there (instead of burning an
    # executed slot on them) keeps even the un-spelled-out stream equal
    # to the all-oracle one.
    all_oracle = Scenario(
        scenario.n_nodes,
        scenario.members,
        600,
        modes=((0, "step"), (20, "run"), (300, "run"), (500, "step")),
    )
    assert events == play(all_oracle, wrap=False)[1]
    assert any('"fast_forward"' in line for line in events)

    # The hazard is real: after the kernel run the calendar built by the
    # first 20 steps names slots the ring has long passed.
    stale = Scenario(
        scenario.n_nodes,
        scenario.members,
        300,
        modes=scenario.modes[:2],
    )
    _, _, sim = play(stale, wrap=False)
    assert sim._calendar[0][0] < sim.current_slot == 300
    polls = count_polls(sim)
    before = released(sim.report)
    Simulation.run(sim, 300)
    # A stale entry costs at most one empty poll before it is re-filed.
    fresh = released(sim.report) - before
    assert 0 < fresh <= polls["n"] <= fresh + len(sim.sources)


def count_polls(sim) -> dict:
    """Count ``messages_for_slot`` calls from now on (instance wrappers)."""
    seen = {"n": 0}
    for source in sim.sources:

        def counted(slot, poll=source.messages_for_slot):
            seen["n"] += 1
            return poll(slot)

        source.messages_for_slot = counted
    return seen


# ----------------------------------------------------------------------
# Pins.
# ----------------------------------------------------------------------


def sparse_ring(n_connections=128):
    rng = np.random.default_rng(3)
    conns = random_connection_set(
        rng, 16, n_connections, 0.5, period_range=(2_000, 20_000)
    )
    conns = scale_connections_to_utilisation(conns, 0.05)
    return ScenarioConfig(n_nodes=16, connections=tuple(conns))


def test_sparse_ring_polls_exactly_as_often_as_it_releases():
    profiler = PhaseProfiler()
    sim = build_simulation(
        sparse_ring(), RunOptions(profiler=profiler, engine="python")
    )
    assert len(sim.sources) == 128
    polls = count_polls(sim)
    sim.run(100_000)
    n = released(sim.report)
    assert n > 100
    assert polls["n"] == n
    # ... and --profile shows it without any wrapper.
    assert profiler.counters["source_polls"] == n
    assert profiler.counters["calendar_due"] == n
    assert profiler.counters["fast_forwarded_slots"] > 50_000
    assert profiler.counters["busy_forwarded_slots"] > 1_000
    assert (
        profiler.calls["release"]
        + profiler.counters["fast_forwarded_slots"]
        + profiler.counters["busy_forwarded_slots"]
    ) == 100_000


def test_injector_is_polled_only_after_a_submit():
    first = conn(0, 2, 500, phase=3)
    injector = MessageInjector(1)
    profiler = PhaseProfiler()
    sim = build_simulation(
        ScenarioConfig(n_nodes=4, connections=(first,)),
        RunOptions(extra_sources=[injector], engine="python", profiler=profiler),
    )
    polls = count_polls(sim)
    sim.run(50)
    # Empty, the injector is off the calendar and vetoes no skip.
    assert polls["n"] == 1
    assert profiler.counters["fast_forwarded_slots"] > 40
    subs = [injector.submit([3], relative_deadline_slots=20) for _ in range(2)]
    sim.run(50)
    # Woken once for both submissions, released in the next slot.
    assert polls["n"] == 2
    assert [s.message.created_slot for s in subs] == [50, 50]
    # Detaching rebuilds the heap; the hook must still file into it.
    assert sim.detach_connection_source(first.connection_id) == 1
    late = injector.submit([2], relative_deadline_slots=20)
    sim.run(50)
    assert polls["n"] == 3 and late.message.created_slot == 100
    be = sim.report.class_stats(TrafficClass.BEST_EFFORT)
    assert be.released == be.delivered == 3


def test_instance_wrappers_set_after_build_are_what_the_engine_calls():
    """The e2e tracer shadows both methods with instance attributes on
    an already-built simulation; the engine must look them up at call
    time, not bind them at construction."""
    sim = build_simulation(
        ScenarioConfig(n_nodes=4, connections=(conn(0, 2, 25, phase=4),)),
        RunOptions(engine="python"),
    )
    (source,) = sim.sources
    calls = {"poll": [], "next": []}
    poll, probe = source.messages_for_slot, source.next_release_slot

    def traced_poll(slot):
        calls["poll"].append(slot)
        return poll(slot)

    def traced_probe(after):
        calls["next"].append(after)
        return probe(after)

    source.messages_for_slot = traced_poll
    source.next_release_slot = traced_probe
    sim.run(100)
    assert calls["poll"] == [4, 29, 54, 79]
    # Filed at slot 0, then re-filed after each poll.
    assert calls["next"] == [0, 5, 30, 55, 80]
    sim.step()
    assert calls["poll"] == [4, 29, 54, 79]


def test_sources_is_a_read_only_view():
    first = ConnectionSource(conn(0, 2, 10))
    sim = build_simulation(ScenarioConfig(n_nodes=4), RunOptions(extra_sources=[first]))
    assert sim.sources == (first,)
    with pytest.raises(AttributeError, match="attach_source"):
        sim.sources = ()
    with pytest.raises(AttributeError, match="attach_source"):
        sim.sources += (ConnectionSource(conn(1, 3, 10)),)
    assert sim.sources == (first,)
    second = sim.attach_source(ConnectionSource(conn(1, 3, 10)))
    assert sim.sources == (first, second)
    assert sim.detach_connection_source(first.connection.connection_id) == 1
    assert sim.sources == (second,)
