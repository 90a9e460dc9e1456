"""Differential harness: the vector engine against the oracle.

Every scenario here runs twice -- once on the pure-Python oracle
(``engine="python"``) and once on the vector engine -- and the two final
states must be **equal**, not approximately equal: the report, the
pending slot plan, the live queue contents, and the slot cursor.  (The
``sim:*`` registry is a function of the report,
:func:`repro.sim.metrics.registry_of`, so report equality covers it.)
After the compared run, both simulations take 60 further oracle
``step()`` calls, so the state the kernel hands back is proven to
*continue* identically, not just to summarise identically.

The suite covers both vector backends: closed-world scenarios land on
the compiled C micro-kernel, while scenarios with features the C tier
declines (drop-late, event observers) land on the numpy SoA kernel, and
a dedicated test forces the SoA kernel onto the closed-world scenarios
too.  Fault injection forces the oracle fallback, and the test asserts
the recorded reason.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.messages as _messages
from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import LinearMapping
from repro.core.priorities import TrafficClass
from repro.sim.fault_models import FaultConfig
from repro.sim.metrics import registry_of
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
from repro.traffic.industrial import industrial_workload
from repro.traffic.periodic import ConnectionSource, random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation


@contextmanager
def fresh_message_ids():
    """Reset the global message-id counter, restoring it afterwards.

    Both engines of one comparison must mint identical message ids, so
    each engine's run starts the counter from zero; the original counter
    object is restored so other tests keep their global monotonicity.
    """
    saved = _messages._message_ids
    _messages._message_ids = itertools.count()
    try:
        yield
    finally:
        _messages._message_ids = saved


def _loaded_config(n_nodes, utilisation, seed=1, **kwargs):
    rng = np.random.default_rng(seed)
    conns = random_connection_set(
        rng, n_nodes, 2 * n_nodes, 0.5, period_range=(10, 100)
    )
    conns = scale_connections_to_utilisation(conns, utilisation)
    return ScenarioConfig(
        n_nodes=n_nodes, connections=tuple(conns), **kwargs
    )


def plan_state(sim):
    plan = sim.pending_plan
    return (
        plan.transmit_slot,
        plan.master,
        plan.gap_s,
        plan.n_requests,
        tuple(
            (t.node, t.message.msg_id, t.links, tuple(sorted(t.destinations)))
            for t in plan.transmissions
        ),
        tuple(
            (t.node, t.message.msg_id, t.links) for t in plan.denied_by_break
        ),
    )


def queue_state(sim):
    return tuple(
        tuple(
            sorted(
                (m.msg_id, m.deadline_slot, m.sent_slots, m.status.value)
                for m in sim.queues[i].pending_messages()
            )
        )
        for i in range(sim.topology.n_nodes)
    )


def snapshot(sim):
    return (
        sim.report,
        plan_state(sim),
        sim.current_slot,
        sim._prev_master,
        queue_state(sim),
    )


def assert_positive_counts(report):
    """Every histogram of ``report`` holds positive counts only.

    Report equality cannot see a zero cell: ``Counter`` equality reads a
    missing key as 0, so a fold that books a zero (or a negative count
    cancelling a positive one) would still compare equal to the oracle.
    """
    stats = (*report.per_class.values(), *report.per_connection.values())
    histograms = [s.latency_counts for s in stats]
    for hist in (*histograms, report.master_slots, report.handover_hops):
        assert all(k > 0 for k in hist.values()), hist


def run_engine(engine, make_sim, *, warm=0, chunks=(2000,), extra_steps=60):
    """One engine's leg of a comparison; returns (snapshot, sim).

    ``chunks`` holds slot counts, each one ``run()`` call, and may
    interleave callables taking the simulation (probes, detaches).
    Every call's report holds positive histogram counts only.
    """
    with fresh_message_ids():
        sim = make_sim(engine)
        for _ in range(warm):
            sim.step()
        for chunk in chunks:
            if callable(chunk):
                chunk(sim)
            else:
                sim.run(chunk)
                assert_positive_counts(sim.report)
        for _ in range(extra_steps):
            sim.step()
        return snapshot(sim), sim


def assert_engines_match(make_sim, **kwargs):
    """Run both engines and compare snapshots field by field."""
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, vec_sim = run_engine("vector", make_sim, **kwargs)
    labels = ("report", "plan", "slot", "prev_master", "queues")
    for label, expected, actual in zip(labels, py_snap, vec_snap):
        assert actual == expected, f"{label} diverged from the oracle"
    return vec_sim


# ----------------------------------------------------------------------
# Scenario table (config construction is shared between the engines of
# one comparison: connection ids are minted at config build time and
# must be identical on both sides).
# ----------------------------------------------------------------------


def _simple(config, **options):
    return lambda engine: build_simulation(
        config, RunOptions(engine=engine, **options)
    )


def _scenario_loaded_n8():
    return _simple(_loaded_config(8, 0.75)), {}


def _scenario_loaded_n32():
    return _simple(_loaded_config(32, 0.8)), {}


def _scenario_warm_continuation():
    # 300 oracle steps first, then the kernel takes over mid-stream.
    return _simple(_loaded_config(8, 0.8)), {"warm": 300}


def _scenario_chunked_runs():
    return _simple(_loaded_config(8, 0.8)), {"chunks": (700, 1300)}


def _scenario_single_slot_chunks():
    return _simple(_loaded_config(8, 0.8)), {"chunks": (1, 1, 998)}


def _scenario_admission_churn():
    # Sources that switch on and off mid-run: the release schedule must
    # honour every [active_from, active_until) window exactly.
    rng = np.random.default_rng(7)
    extra = tuple(
        ConnectionSource(c, active_from=150 + 37 * j, active_until=1200 + 90 * j)
        for j, c in enumerate(
            random_connection_set(
                rng, 8, 12, 0.6, period_range=(10, 80),
                multicast_probability=0.4,
            )[:6]
        )
    )
    config = _loaded_config(8, 0.5)
    return _simple(config, extra_sources=extra), {}


def _scenario_linear_mapping():
    config = _loaded_config(8, 0.7)
    return _simple(config, mapping=LinearMapping(horizon_slots=256)), {}


def _scenario_no_spatial_reuse():
    config = dataclasses.replace(
        _loaded_config(8, 0.6), spatial_reuse=False
    )
    return _simple(config), {}


def _scenario_idle_sparse():
    return _simple(_loaded_config(8, 0.05)), {}


def _scenario_drop_late():
    # drop_late is outside the compiled tier's closed world, so this
    # scenario exercises the numpy SoA kernel.
    config = _loaded_config(8, 0.9, drop_late=True)
    return _simple(config), {}


def _scenario_multicast_multislot():
    # Explicit multicast fan-outs and multi-slot messages: transit
    # spans several slots and deliveries touch several destinations.
    conns = tuple(
        LogicalRealTimeConnection(
            source=i % 8,
            destinations=frozenset({(i + 1) % 8, (i + 3) % 8}),
            period_slots=20 + 7 * i,
            size_slots=3 + (i % 4),
            connection_id=100 + i,
        )
        for i in range(10)
    )
    config = ScenarioConfig(n_nodes=8, connections=conns)
    return _simple(config), {}


def _scenario_initial_master():
    config = dataclasses.replace(_loaded_config(8, 0.7), initial_master=5)
    return _simple(config), {}


def _scenario_constrained_deadlines():
    # D < P workload: absolute deadlines are release + relative deadline,
    # not release + period.  Regression for the kernels' inlined release
    # path, which once hard-coded the implicit-deadline (D = P) formula.
    rng = np.random.default_rng(7)
    conns = industrial_workload(
        rng, n_nodes=8, n_connections=12, utilisation=0.8,
        tight_fraction=0.5, tight_deadline_ratio=0.4,
    )
    config = ScenarioConfig(n_nodes=8, connections=tuple(conns))
    return _simple(config), {}


def _scenario_wide_ring_n62():
    # The widest ring the kernel's 64-bit node and link masks take, with
    # more than 64 sourced connections: the release wheel's bitmasks span
    # two words.
    config = _loaded_config(62, 0.8)
    assert len(config.connections) > 64
    return _simple(config), {}


def _scenario_long_periods():
    # Periods 2 000-20 000 with random phases (the oracle_sparse_n16
    # shape): heads whose laxity passes the log mapping's last level
    # start (16 383), where the compiled tier's laxity -> priority table
    # clamps.  One period is longer than the release wheel's 2^16-slot
    # cap, so its bit waits through a lap before it is due.
    rng = np.random.default_rng(3)
    conns = random_connection_set(
        rng, 16, 40, 0.3, period_range=(2_000, 20_000)
    )
    assert max(c.relative_deadline_slots for c in conns) > 2**14
    conns.append(_conn(700, 3, 9, 70_000, 40, phase=1_000))
    config = ScenarioConfig(n_nodes=16, connections=tuple(conns))
    return _simple(config), {"chunks": (100_000, 50_000)}


def _scenario_detached_long_deadline():
    # A long message whose connection is detached mid-transfer: the
    # carried head's laxity passes every still-sourced relative deadline,
    # so the compiled tier's laxity table must reach carried rows too
    # (clamped there, the head would tie the short connection's level and
    # win the grant on its lower node index).
    config = ScenarioConfig(
        n_nodes=8,
        connections=(_conn(600, 0, 4, 1000, 300), _conn(601, 1, 2, 8, 1)),
    )

    def detach(sim):
        assert sim.detach_connection_source(600) == 1

    return _simple(config), {"chunks": (5, detach, 1000)}


SCENARIOS = {
    "loaded_n8": _scenario_loaded_n8,
    "loaded_n32": _scenario_loaded_n32,
    "warm_continuation": _scenario_warm_continuation,
    "chunked_runs": _scenario_chunked_runs,
    "single_slot_chunks": _scenario_single_slot_chunks,
    "admission_churn": _scenario_admission_churn,
    "linear_mapping": _scenario_linear_mapping,
    "no_spatial_reuse": _scenario_no_spatial_reuse,
    "idle_sparse": _scenario_idle_sparse,
    "drop_late": _scenario_drop_late,
    "multicast_multislot": _scenario_multicast_multislot,
    "initial_master": _scenario_initial_master,
    "constrained_deadlines": _scenario_constrained_deadlines,
    "wide_ring_n62": _scenario_wide_ring_n62,
    "long_periods": _scenario_long_periods,
    "detached_long_deadline": _scenario_detached_long_deadline,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_vector_matches_oracle(name):
    make_sim, kwargs = SCENARIOS[name]()
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason is None
    assert vec_sim.vector_backend in ("compiled", "python")


@pytest.mark.parametrize(
    "name",
    ["loaded_n8", "admission_churn", "linear_mapping",
     "constrained_deadlines"],
)
def test_soa_kernel_matches_oracle(name, monkeypatch):
    """Force the numpy SoA kernel onto closed-world scenarios.

    The compiled tier normally claims these; disabling it proves the
    pure-numpy kernel is independently bit-identical, not just a
    fallback that never runs.
    """
    monkeypatch.setattr(ckernel, "_fn", None)
    make_sim, kwargs = SCENARIOS[name]()
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_backend == "python"


@pytest.mark.parametrize("events", [False, True], ids=["plain", "events"])
def test_soa_kernel_interleaves_inline_and_polled_releases(
    tmp_path, monkeypatch, events
):
    """The SoA kernel files every source on one release heap.  Plain
    periodic sources -- one switching on late, one switching off
    mid-run -- release inline, a Poisson source is polled, and in the
    slots where both release, the messages take their ids in source-list
    order, as on the oracle.  The calls' edges fall inside both windows."""
    from repro.obs.events import EventDispatcher, JsonlEventLog
    from repro.traffic.poisson import PoissonSource

    monkeypatch.setattr(ckernel, "_fn", None)
    config = _loaded_config(8, 0.5)
    late_on = ConnectionSource(_conn(800, 1, 5, 7, 1, phase=3), active_from=200)
    mid_off = ConnectionSource(_conn(801, 6, 2, 5, 2), active_until=900)

    def poisson():
        return PoissonSource(
            node=3,
            n_nodes=8,
            rate_per_slot=0.3,
            traffic_class=TrafficClass.BEST_EFFORT,
            rng=np.random.default_rng(5),
            relative_deadline_slots=40,
        )

    n_slots = 1200
    # The Poisson source draws once per slot, so a twin polled slot by
    # slot replays its release slots.
    twin = poisson()
    polled = {t for t in range(n_slots) if twin.messages_for_slot(t)}
    for src in (late_on, mid_off):
        assert any(
            src.active_from <= t < (src.active_until or n_slots)
            and src.connection.releases_at(t)
            for t in polled
        ), "no slot releases inline and polled at once"

    observers = {}

    def make_sim(engine):
        if events:
            observer = observers[engine] = EventDispatcher()
            observer.add_sink(JsonlEventLog(tmp_path / f"{engine}.jsonl"))
        return build_simulation(
            config,
            RunOptions(
                engine=engine,
                observer=observers.get(engine),
                extra_sources=(late_on, poisson(), mid_off),
            ),
        )

    sim = assert_engines_match(make_sim, chunks=(500, 700))
    assert sim.vector_backend == "python"
    for observer in observers.values():
        observer.close()
    if events:
        log = {e: (tmp_path / f"{e}.jsonl").read_bytes() for e in observers}
        assert log["vector"] == log["python"]


# ----------------------------------------------------------------------
# The compiled tier's exit fold.  It books the kernel's counts and cell
# list into the report in one pass over the dense connection ids, so
# each test below pins one thing a per-message loop gets right for free:
# the deadline comparison at its boundary, histogram keys and counts as
# plain ints, the chunk edges (nothing delivered, a message carried in,
# a connection no longer sourced, a release with no delivery) and a
# second call folding into filled histograms.  Each runs on the compiled
# tier and again with the SoA kernel forced, unless it spies on the
# compiled fold itself.
# ----------------------------------------------------------------------

RT = TrafficClass.RT_CONNECTION


@pytest.fixture(params=["compiled", "python"])
def backend(request, monkeypatch):
    """The vector backend a fold test must land on."""
    if request.param == "python":
        monkeypatch.setattr(ckernel, "_fn", None)
    elif ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    return request.param


def _conn(cid, source, destination, period, size, phase=0):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset({destination}),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
        connection_id=cid,
    )


def test_fold_overloaded_ring(backend):
    """U > 1 without spatial reuse: most deadlines are missed, some are
    met exactly on the deadline slot (``completed == deadline``)."""
    config = _loaded_config(8, 1.05, spatial_reuse=False)
    sim = assert_engines_match(_simple(config))
    assert sim.vector_backend == backend
    rt = sim.report.class_stats(RT)
    assert rt.deadline_missed > 0 and rt.deadline_met > 0
    per_connection = sim.report.per_connection
    assert all(c.deadline_missed for c in per_connection.values())
    # latency == D + 1  <=>  delivered in the deadline slot itself
    assert any(
        c.relative_deadline_slots + 1
        in per_connection[c.connection_id].latency_counts
        for c in config.connections
    )


def test_fold_latencies_are_python_ints(backend):
    """Latencies spanning four log2 buckets fold back as plain ``int``
    histogram keys and counts, in the class and per connection alike:
    report equality alone would let a numpy integer or a float through,
    and the registry and every artifact built from the report would then
    change type."""
    config = ScenarioConfig(
        n_nodes=8,
        connections=(
            _conn(400, 0, 2, 200, 20),
            _conn(401, 4, 6, 50, 6),
            _conn(402, 6, 7, 9, 1, phase=30),
        ),
    )
    sim = assert_engines_match(_simple(config), chunks=(700, 1300))
    assert sim.vector_backend == backend
    report = sim.report
    histograms = [report.class_stats(RT).latency_counts]
    histograms += [s.latency_counts for s in report.per_connection.values()]
    keys_and_counts = [v for h in histograms for item in h.items() for v in item]
    assert {type(v) for v in keys_and_counts} == {int}
    hist = registry_of(report).histograms["sim:latency_slots"]
    assert sorted(hist.buckets) == [2, 3, 4, 5]
    assert type(hist.min) is int and type(hist.max) is int


def test_fold_chunk_edges(backend):
    """Chunk boundaries the fold special-cases: a chunk that delivers
    nothing, one that finishes a multi-slot message carried in in
    transit, and one whose only live message belongs to a connection
    detached just before (its dense id lies beyond the sourced ones)."""
    config = ScenarioConfig(
        n_nodes=8,
        connections=(_conn(500, 0, 4, 40, 6), _conn(501, 5, 7, 25, 2, phase=12)),
    )
    log = []

    def probe(sim):
        log.append(copy.deepcopy(snapshot(sim)))

    def detach(sim):
        assert sim.detach_connection_source(501) == 1

    sim = assert_engines_match(
        _simple(config),
        chunks=(3, probe, 2, probe, 4, probe, 5, probe, detach, 10, probe, 100),
    )
    assert sim.vector_backend == backend
    oracle, vector = log[:5], log[5:]
    assert vector == oracle
    delivered = [snap[0].class_stats(RT).delivered for snap in oracle]
    assert delivered == [0, 0, 1, 1, 2]
    in_transit = [
        [m for node in snap[4] for m in node if m[3] == "in_transit"]
        for snap in oracle
    ]
    # (msg_id, deadline, sent, status): 500's first message is carried
    # across two chunk edges, 501's only one across the detach.
    assert in_transit == [
        [(0, 40, 2, "in_transit")],
        [(0, 40, 4, "in_transit")],
        [],
        [(1, 37, 1, "in_transit")],
        [],
    ]
    stats = sim.report.per_connection[501]
    assert (stats.released, stats.delivered) == (1, 1)


def test_fold_release_without_delivery(backend):
    """A connection that releases in a call but delivers nothing in it
    gets a ``ConnectionStats`` from the release alone, with an empty
    histogram; the call that delivers its message folds into it."""
    config = ScenarioConfig(
        n_nodes=8,
        connections=(_conn(700, 0, 4, 1000, 300), _conn(701, 1, 2, 8, 1)),
    )
    log = []

    def probe(sim):
        log.append(copy.deepcopy(sim.report.per_connection[700]))

    sim = assert_engines_match(_simple(config), chunks=(50, probe, 400, probe))
    assert sim.vector_backend == backend
    oracle, vector = log[:2], log[2:]
    assert vector == oracle
    quiet, delivered = vector
    assert (quiet.released, quiet.delivered, quiet.latency_counts) == (1, 0, {})
    assert (delivered.released, delivered.delivered) == (1, 1)
    assert delivered.latency_counts.total() == 1


def test_second_call_folds_into_filled_histograms(monkeypatch):
    """A second ``run()`` on one simulation folds into the histograms the
    first one filled: cells at latencies a connection already counted
    add up, and so does a late-log pair (a latency too long for the
    count table) at a latency its connection already logged late."""
    _compiled_only()
    folds = []
    fold = ckernel._fold

    def spy(sim, ws, n_slots, pre_objs, sources, cid_list, late):
        before = {
            cid: set(stats.latency_counts)
            for cid, stats in sim.report.per_connection.items()
        }
        repeats = [
            (di, latency)
            for di, latency in late
            if latency in before.get(cid_list[di], ())
        ]
        folds.append((before, late.copy(), repeats))
        fold(sim, ws, n_slots, pre_objs, sources, cid_list, late)

    monkeypatch.setattr(ckernel, "_fold", spy)
    config = _loaded_config(8, 1.3, spatial_reuse=False)
    sim = assert_engines_match(_simple(config), chunks=(3000, 3000))
    assert sim.vector_backend == "compiled"
    (before1, late1, _), (before2, late2, repeats) = folds
    assert not before1 and late1
    assert len(before2) == len(config.connections)
    assert all(before2.values()), "a histogram was empty before the second fold"
    assert late2 and repeats


# ----------------------------------------------------------------------
# The compiled tier's message table and latency table.  One kernel entry
# runs a whole call: the kernel compacts its message table when it
# fills, returns to grow it only for a backlog that outgrows it, and
# counts latencies in a table ``lat_width`` wide, logging later ones.
# ----------------------------------------------------------------------


def _compiled_only():
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")


def _spy_folds(monkeypatch):
    """Record each compiled call's compaction count."""
    calls = []
    fold = ckernel._fold

    def spy(sim, ws, *args):
        calls.append(ws.scalar("n_compactions"))
        fold(sim, ws, *args)

    monkeypatch.setattr(ckernel, "_fold", spy)
    return calls


def test_latency_table_edges(monkeypatch):
    """U = 1.05 without spatial reuse over 200 000 slots: deliveries land
    on the count table's last column (latency ``lat_width - 1``), on the
    first latency past it (``lat_width``, the late log) and far past it;
    the late log fills and is drained mid-call more than once."""
    _compiled_only()
    drains = []
    drain = ckernel._drain_late_log

    def spy(ws, late):
        drains.append(ws.scalar("n_log"))
        drain(ws, late)

    monkeypatch.setattr(ckernel, "_drain_late_log", spy)
    config = _loaded_config(8, 1.05, spatial_reuse=False)
    sim = assert_engines_match(
        _simple(config), chunks=(200_000,), extra_steps=10
    )
    assert sim.vector_backend == "compiled"
    width = min(
        ckernel._LAT_WIDTH,
        max(c.relative_deadline_slots for c in config.connections) + 2,
    )
    counts = sim.report.class_stats(RT).latency_counts
    assert counts[width - 1] and counts[width]
    assert max(counts) > 10 * width
    # Mid-call drains find the log within one slot's deliveries (at most
    # n = 8) of full; the last drain is the fold's own.
    assert drains[:-1] and all(
        k > ckernel._WINDOW_RELEASES - 8 for k in drains[:-1]
    )


@pytest.mark.parametrize("detached", [False, True], ids=["sourced", "detached"])
def test_carried_message_survives_compactions(monkeypatch, detached):
    """A long message carried into a call stays live across many
    compactions of a three-release table: it keeps its row and its
    object, whether or not its connection is still sourced (a detached
    connection's dense id lies past the sourced ones)."""
    _compiled_only()
    monkeypatch.setattr(ckernel, "_WINDOW_RELEASES", 3)
    compactions = _spy_folds(monkeypatch)
    config = ScenarioConfig(
        n_nodes=8,
        connections=(
            _conn(600, 0, 4, 1000, 300),
            _conn(601, 1, 2, 8, 1),
            _conn(602, 5, 7, 5, 2, phase=1),
        ),
    )
    carried = {}

    def grab(sim):
        [msg] = sim.queues[0].pending_messages()
        carried[type(sim).__name__] = (msg, msg.sent_slots)
        if detached:
            assert sim.detach_connection_source(600) == 1

    def check(sim):
        msg, sent = carried[type(sim).__name__]
        [live] = sim.queues[0].pending_messages()
        assert live is msg
        assert sent < msg.sent_slots < msg.size_slots

    sim = assert_engines_match(
        _simple(config), chunks=(5, grab, 200, check), extra_steps=10
    )
    assert sim.vector_backend == "compiled"
    assert compactions[-1] >= 3
    stats = sim.report.per_connection[600]
    assert stats.released == 1 and stats.delivered == 0


def test_backlog_grows_the_table(monkeypatch):
    """A backlog that outgrows the message table (U = 1.05 over a
    64-release table) is the kernel's reason to return mid-call: the glue
    grows the buffer and re-enters without a fold."""
    _compiled_only()
    monkeypatch.setattr(ckernel, "_WINDOW_RELEASES", 64)
    compactions = _spy_folds(monkeypatch)
    grown = []
    grow = ckernel._Workspace.grown

    def spy(ws, rows):
        grown.append((ws.scalar("n_rows"), ws.scalar("row_cap")))
        return grow(ws, rows)

    monkeypatch.setattr(ckernel._Workspace, "grown", spy)
    config = _loaded_config(8, 1.05, spatial_reuse=False)
    sim = assert_engines_match(_simple(config), chunks=(3000,))
    assert sim.vector_backend == "compiled"
    assert len(compactions) == 1 and compactions[0] > len(grown) >= 2
    # Each growth found more than half the table live after a compaction.
    assert all(2 * used > cap for used, cap in grown)


def test_profiler_does_not_change_the_tier():
    """A profiled closed-world run stays on the compiled tier, produces
    the unprofiled run's report, and records one ``ingest`` / ``kernel``
    / ``fold`` lap per ``run()`` call and one ``compiled_windows`` count
    per call (none compacts), and nothing else."""
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    config = _loaded_config(8, 0.75)
    kwargs = {"chunks": (700, 1300, 0, 50), "extra_steps": 0}
    profiler = PhaseProfiler()
    plain, _ = run_engine("vector", _simple(config), **kwargs)
    profiled, sim = run_engine(
        "vector", _simple(config, profiler=profiler), **kwargs
    )
    assert sim.vector_backend == "compiled"
    assert profiled == plain
    assert profiler.calls == {"ingest": 3, "kernel": 3, "fold": 3}
    assert profiler.counters == {"compiled_windows": 3}


def test_profiled_soa_kernel_records_one_kernel_lap(monkeypatch):
    monkeypatch.setattr(ckernel, "_fn", None)
    profiler = PhaseProfiler()
    _, sim = run_engine(
        "vector",
        _simple(_loaded_config(8, 0.75), profiler=profiler),
        chunks=(700, 1300),
        extra_steps=0,
    )
    assert sim.vector_backend == "python"
    assert profiler.calls["kernel"] == 2
    assert not {"ingest", "fold"} & set(profiler.calls)


def test_zero_slot_run_keeps_the_tier_on_record():
    """``run(0)`` executes nothing, so it must not relabel the backend
    (it used to fall through to the SoA kernel and report "python")."""
    make_sim, _ = SCENARIOS["loaded_n8"]()
    with fresh_message_ids():
        sim = make_sim("vector")
        sim.run(0)
        assert (sim.vector_backend, sim.vector_slots) == (None, 0)
        sim.run(500)
        before = (
            sim.vector_backend, sim.vector_fallback_reason, sim.vector_slots
        )
        report = sim.run(0)
    assert report is sim.report and report.slots_simulated == 500
    assert (
        sim.vector_backend, sim.vector_fallback_reason, sim.vector_slots
    ) == before
    assert before[0] in ("compiled", "python") and before[2] == 500


def test_fault_injection_falls_back_to_oracle():
    """Fault models force the oracle; the reason is recorded and the
    result is (trivially, but verifiably) identical."""
    config = _loaded_config(
        8,
        0.7,
        fault_config=FaultConfig(
            node_mttf_slots=3000.0, node_mttr_slots=150.0, seed=5
        ),
    )
    make_sim, kwargs = _simple(config), {}
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason == "fault injection active"
    assert vec_sim.vector_backend is None
    assert vec_sim.vector_slots == 0


def test_non_edf_policy_falls_back_to_oracle():
    """Non-EDF policies force the oracle; the recorded reason is the
    documented ``"policy"`` string and the result matches the oracle."""
    config = _loaded_config(8, 0.7, policy="rm")
    make_sim, kwargs = _simple(config), {}
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason == "policy"
    assert vec_sim.vector_backend is None
    assert vec_sim.vector_slots == 0


def test_compiled_backend_claims_closed_world():
    """The loaded closed-world scenario lands on the compiled tier when
    a C toolchain is available (skip, not fail, where there is none)."""
    make_sim, _ = SCENARIOS["loaded_n8"]()
    with fresh_message_ids():
        sim = make_sim("vector")
        sim.run(500)
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    assert sim.vector_backend == "compiled"


def test_event_stream_is_byte_identical(tmp_path):
    """The vector engine's ``--events`` JSONL equals the oracle's, byte
    for byte (observer-attached runs ride the SoA kernel)."""
    from repro.obs.events import EventDispatcher, JsonlEventLog

    config = _loaded_config(8, 0.7)
    logs = {}
    for engine in ("python", "vector"):
        path = tmp_path / f"{engine}.jsonl"
        observer = EventDispatcher()
        observer.add_sink(JsonlEventLog(path))
        with fresh_message_ids():
            sim = build_simulation(
                config, RunOptions(engine=engine, observer=observer)
            )
            sim.run(1500)
        observer.close()
        logs[engine] = path.read_bytes()
        if engine == "vector":
            assert sim.vector_fallback_reason is None
    assert logs["vector"] == logs["python"]


def test_arbitration_order_priority_then_node():
    """A contended slot grants in (priority desc, node asc) order on the
    vector engine, matching the oracle's sweep exactly."""
    conns = tuple(
        LogicalRealTimeConnection(
            source=i,
            destinations=frozenset({(i + 1) % 8}),
            period_slots=50,
            size_slots=1,
            connection_id=200 + i,
        )
        for i in range(8)
    )
    config = ScenarioConfig(n_nodes=8, connections=conns)
    # Snapshot right after slot 1: all eight sources released at slot 0,
    # so the pending plan still carries a multi-grant sweep.
    make_sim, kwargs = _simple(config), {"chunks": (2,), "extra_steps": 0}
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, _ = run_engine("vector", make_sim, **kwargs)
    assert vec_snap[1] == py_snap[1]  # the pending plan, grants in order
    grants = vec_snap[1][4]
    assert grants, "contended scenario produced an empty plan"
