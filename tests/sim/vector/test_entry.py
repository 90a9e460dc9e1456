"""The compiled tier's entry: in-kernel release calendar and id block.

The kernel walks each connection's releases itself, from the first
release the source names (``next_release_slot``) to the end of its
active window or of the call.  Hypothesis draws chunked runs whose edges
are where that walk can go wrong -- windows opening or closing inside a
chunk, releases exactly on a chunk boundary, odd chunk lengths, sources
attached or detached between chunks, and oracle ``run_until`` spans
between two compiled calls -- and each plan runs on both engines.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.messages as _messages
from repro.core.connection import LogicalRealTimeConnection
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
from repro.traffic.periodic import ConnectionSource

from tests.sim.vector.test_differential import (
    _loaded_config,
    assert_engines_match,
    fresh_message_ids,
)


def _never() -> bool:
    return False


@st.composite
def entry_plans(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=8))
    # Segments of odd length: a compiled run() or an oracle run_until().
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["run", "run", "until"]),
                st.integers(0, 60).map(lambda k: 2 * k + 1),
            ),
            min_size=2,
            max_size=6,
        )
    )
    edges = list(itertools.accumulate(length for _, length in segments))
    near_edge = st.sampled_from(edges).flatmap(
        lambda e: st.sampled_from([e - 1, e, e + 1])
    )

    def connection():
        period = draw(st.integers(min_value=1, max_value=24))
        source = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        others = [v for v in range(n_nodes) if v != source]
        dests = draw(
            st.lists(
                st.sampled_from(others), min_size=1, max_size=2, unique=True
            )
        )
        phase = draw(st.integers(min_value=0, max_value=30) | near_edge)
        return LogicalRealTimeConnection(
            source=source,
            destinations=frozenset(dests),
            period_slots=period,
            size_slots=draw(st.integers(1, min(3, period))),
            phase_slots=phase,
        )

    def window(conn):
        # Edges near a chunk edge, or on one of the connection's own
        # release slots, so a window opens or closes on a release.
        on_release = st.integers(0, 8).map(
            lambda k: conn.phase_slots + k * conn.period_slots
        )
        edge = near_edge | on_release
        start = draw(st.just(0) | edge)
        until = draw(st.none() | edge | st.integers(0, 40).map(start.__add__))
        if until is not None and until < start:
            start, until = until, start
        return start, until

    def sourced():
        conn = connection()
        return conn, window(conn)

    base = [sourced() for _ in range(draw(st.integers(1, 5)))]
    # Between segments: attach a new source, detach a sourced connection.
    actions = {}
    for i in range(len(segments) - 1):
        kind = draw(st.sampled_from([None, None, "attach", "detach"]))
        if kind == "attach":
            actions[i] = ("attach", *sourced())
        elif kind == "detach":
            actions[i] = ("detach", draw(st.integers(0, len(base) - 1)))
    return n_nodes, segments, base, actions


def _plan_chunks(segments, base, actions):
    chunks = []
    for i, (kind, length) in enumerate(segments):
        if kind == "run":
            chunks.append(length)
        else:
            chunks.append(lambda sim, k=length: sim.run_until(_never, k))
        action = actions.get(i)
        if action is None:
            continue
        if action[0] == "attach":
            _, conn, (start, until) = action
            chunks.append(
                lambda sim, c=conn, f=start, u=until: sim.attach_source(
                    ConnectionSource(c, active_from=f, active_until=u)
                )
            )
        else:
            cid = base[action[1]][0].connection_id
            chunks.append(lambda sim, c=cid: sim.detach_connection_source(c))
    return chunks


@given(entry_plans())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chunked_entries_match_the_oracle(plan):
    n_nodes, segments, base, actions = plan
    config = ScenarioConfig(n_nodes=n_nodes)

    def make_sim(engine):
        sources = tuple(
            ConnectionSource(conn, active_from=start, active_until=until)
            for conn, (start, until) in base
        )
        return build_simulation(
            config, RunOptions(engine=engine, extra_sources=sources)
        )

    sim = assert_engines_match(
        make_sim, chunks=_plan_chunks(segments, base, actions), extra_steps=20
    )
    if any(kind == "run" for kind, _ in segments):
        expected = "python" if ckernel._kernel_fn() is None else "compiled"
        assert sim.vector_backend == expected


@pytest.mark.parametrize("n_slots", [1, 37, 700])
def test_message_ids_continue_the_oracle_sequence(n_slots):
    """After a compiled call, the next message id minted anywhere is the
    one the oracle would mint: the kernel took exactly one id per
    release, from the global counter, before it ran."""
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    config = _loaded_config(8, 0.8)
    next_ids = {}
    for engine in ("python", "vector"):
        with fresh_message_ids():
            sim = build_simulation(config, RunOptions(engine=engine))
            sim.run(n_slots)
            next_ids[engine] = next(_messages._message_ids)
    assert sim.vector_backend == "compiled"
    assert next_ids["vector"] == next_ids["python"] > 0
