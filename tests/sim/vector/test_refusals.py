"""The compiled tier names every refusal.

``ckernel.try_run`` declines a call it cannot replicate bit for bit and
returns why; :class:`VectorSimulation` then runs the numpy SoA kernel
and records the reason in ``vector_numpy_reason``.  One test per
refusal: the reason is recorded, the numpy tier ran, and the result is
still the oracle's (the refusal left the simulation untouched).  What is
no refusal stays compiled: any laxity mapping, and any number of
releases (the kernel compacts its message table when it fills).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import LinearMapping, LogarithmicMapping
from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.core.protocol import PlannedTransmission
from repro.obs.events import BoundedEventRing, EventDispatcher
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
from repro.traffic.poisson import PoissonSource

from tests.core.test_mapping import SQUARE_STEPS
from tests.sim.vector.test_differential import (
    _loaded_config,
    assert_engines_match,
)


class _TunedLog(LogarithmicMapping):
    """The logarithmic map under another name (a custom mapping)."""


def _make(config, **options):
    return lambda engine: build_simulation(
        config, RunOptions(engine=engine, **options)
    )


def _inject(traffic_class, connection_id=None, orphan=False):
    """A setup step enqueueing one message at node 0 (both engines);
    ``orphan`` then strips the connection id off the queued message."""

    def setup(sim):
        msg = Message(
            source=0,
            destinations=frozenset([2]),
            traffic_class=traffic_class,
            size_slots=2,
            created_slot=sim.current_slot,
            deadline_slot=sim.current_slot + 400,
            connection_id=connection_id,
        )
        sim.queues[0].enqueue(msg)
        if orphan:
            msg.connection_id = None

    return setup


def _open_fault_window(sim):
    sim.metrics.fault_window_active = True


def _plan_foreign_message(sim):
    # A grant whose message sits in no queue (the oracle would still
    # transmit it; the compiled tier can only address queued rows).
    msg = Message(
        source=1,
        destinations=frozenset([3]),
        traffic_class=TrafficClass.RT_CONNECTION,
        size_slots=1,
        created_slot=sim.current_slot,
        deadline_slot=sim.current_slot + 50,
        connection_id=999_999,
    )
    plan = sim.pending_plan
    tx = PlannedTransmission(
        node=1, message=msg, links=0b110, destinations=msg.destinations
    )
    sim._pending = (plan.master, plan.gap_s, (tx,), (), 1)


def _wide_ring():
    conns = tuple(
        LogicalRealTimeConnection(
            source=i,
            destinations=frozenset({(i + 5) % 64}),
            period_slots=40,
            size_slots=2,
        )
        for i in range(0, 64, 8)
    )
    return ScenarioConfig(n_nodes=64, connections=conns)


def _poisson(config):
    return PoissonSource(
        node=2,
        n_nodes=config.n_nodes,
        rate_per_slot=0.05,
        traffic_class=TrafficClass.NON_REAL_TIME,
        rng=np.random.default_rng(11),
    )


def _cases():
    config = _loaded_config(8, 0.6)
    return {
        "no compiled kernel": (_make(config), ()),
        "observer attached": (
            lambda engine: build_simulation(
                config, RunOptions(engine=engine, observer=_observer())
            ),
            (),
        ),
        "drop-late": (_make(_loaded_config(8, 0.9, drop_late=True)), ()),
        "fault window open": (_make(config), (_open_fault_window,)),
        "ring wider than 62 nodes": (_make(_wide_ring()), ()),
        "source PoissonSource is not a ConnectionSource": (
            lambda engine: build_simulation(
                config,
                RunOptions(engine=engine, extra_sources=(_poisson(config),)),
            ),
            (),
        ),
        "live best-effort or non-real-time backlog": (
            _make(config),
            (_inject(TrafficClass.BEST_EFFORT),),
        ),
        "live message outside an RT connection": (
            _make(config),
            (_inject(TrafficClass.RT_CONNECTION, 999_998, orphan=True),),
        ),
        "planned message not queued": (_make(config), (_plan_foreign_message,)),
    }


def _observer():
    observer = EventDispatcher()
    observer.add_sink(BoundedEventRing(100))
    return observer


REFUSALS = sorted(_cases())


@pytest.mark.parametrize("reason", REFUSALS)
def test_refusal_is_named(reason, monkeypatch):
    if reason == "no compiled kernel":
        monkeypatch.setattr(ckernel, "_fn", None)
    elif ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    make_sim, setup = _cases()[reason]
    sim = assert_engines_match(
        make_sim, warm=5, chunks=(*setup, 300), extra_steps=10
    )
    assert sim.vector_backend == "python"
    assert sim.vector_numpy_reason == reason
    assert sim.vector_fallback_reason is None


def test_compiled_run_records_no_refusal():
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    sim = build_simulation(_loaded_config(8, 0.6), RunOptions(engine="vector"))
    sim.run(300)
    assert (sim.vector_backend, sim.vector_numpy_reason) == ("compiled", None)


@pytest.mark.parametrize(
    "mapping",
    [_TunedLog(), LinearMapping(horizon_slots=4), SQUARE_STEPS],
    ids=["custom-log", "linear-empty-levels", "custom-base-scan"],
)
def test_any_mapping_runs_compiled(mapping):
    """No laxity mapping is a refusal: the compiled tier reads the
    mapping's level-start table and still matches the oracle."""
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    make_sim = _make(_loaded_config(8, 0.6), mapping=mapping)
    sim = assert_engines_match(make_sim, warm=5, chunks=(300,), extra_steps=10)
    assert (sim.vector_backend, sim.vector_numpy_reason) == ("compiled", None)


def test_release_count_is_no_refusal(monkeypatch):
    """A call with more releases than the message table holds stays
    compiled: the kernel compacts the table in place, and a table of
    three releases (a compaction every few slots, grown as the backlog
    asks) still matches the oracle bit for bit.  The compactions fall
    mid-message, with a hand-over pending and with a break denial
    pending; the call records one profiler lap triple and its windows on
    the ``compiled_windows`` counter; and the message ids the call
    reserves run on without a gap."""
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    monkeypatch.setattr(ckernel, "_WINDOW_RELEASES", 3)
    folded = []
    fold = ckernel._fold

    def spy(sim, ws, *args):
        folded.append((ws.scalar("n_compactions"), ws.scalar("compacted")))
        fold(sim, ws, *args)

    monkeypatch.setattr(ckernel, "_fold", spy)
    config = _loaded_config(8, 0.9)
    profilers = {}
    ids = {}

    def make_sim(engine):
        profilers[engine] = PhaseProfiler()
        return build_simulation(
            config, RunOptions(engine=engine, profiler=profilers[engine])
        )

    def probe(key):
        def setup(sim):
            msg = Message(
                source=0,
                destinations=frozenset([2]),
                traffic_class=TrafficClass.NON_REAL_TIME,
                size_slots=1,
                created_slot=sim.current_slot,
            )
            released = sim.report.per_class[TrafficClass.RT_CONNECTION].released
            ids[type(sim).__name__, key] = (msg.msg_id, released)

        return setup

    sim = assert_engines_match(
        make_sim,
        warm=5,
        chunks=(probe("before"), 400, probe("after")),
        extra_steps=10,
    )
    assert (sim.vector_backend, sim.vector_numpy_reason) == ("compiled", None)
    [(compactions, compacted)] = folded
    assert compactions > 5
    # Bits 1, 2, 4: a message in transit, a hand-over, a break denial.
    assert compacted == 0b111, "a boundary kind never occurred"
    # (The warm-up and trailing oracle steps record their own phases.)
    profiler = profilers["vector"]
    assert [profiler.calls[phase] for phase in ("ingest", "kernel", "fold")] == [1] * 3
    assert profiler.counters["compiled_windows"] == compactions + 1
    id_before, released_before = ids["VectorSimulation", "before"]
    id_after, released_after = ids["VectorSimulation", "after"]
    # The call reserves ids from ``id_before + 1`` on.
    assert id_after == id_before + 1 + (released_after - released_before)
