"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the common workflows without writing a script:

* ``info``     -- print the analytical model of a network configuration
  (Equations 1-6) for given N / link length / payload;
* ``simulate`` -- run a random periodic workload at a target utilisation
  on a chosen protocol and print the report;
* ``compare``  -- run the identical workload on every protocol and print
  a side-by-side table (the S1-style experiment, one command);
* ``analyze``  -- admission-test a set of (period, size) connection specs
  and print per-connection worst-case response times and headroom;
* ``inspect``  -- replay a JSONL event log (``simulate --events``) and
  print its reconstructed totals;
* ``campaign`` -- run / resume / report a declarative multi-scenario
  sweep from a JSON spec (see ``docs/CAMPAIGNS.md``);
* ``serve``    -- stand the live asyncio admission service up over a
  hosted ring and probe it (see ``docs/SERVICE.md``);
* ``churn``    -- the service load harness: concurrent churn clients
  playing arrival/departure/fault storms against one service.

Every command builds all of its inputs -- scenario, workload, fault
model, run options, simulation or service -- before it prints anything.
A ``ValueError`` raised while building is the library rejecting a value
outside the model's domain (a ring of one node, a zero-byte slot, a
probability above 1, ...): :func:`main` reports it as one
``repro <command>: error: <message>`` line on stderr with exit status 2,
the same line argparse prints for a malformed flag.  An error raised
after the build is a bug and keeps its traceback.

Exit codes:

* 0 -- success;
* 1 -- ``campaign fsck`` found damage, or ``--verify-replay`` found the
  event log disagreeing with the live service;
* 2 -- a usage or configuration error;
* 3 -- ``campaign run`` stopped with runs left (resumable);
* 4 -- ``campaign run`` quarantined at least one run.

The repo's determinism and event-loop invariants are checked by the test
suite, not by a subcommand (see ``docs/LINTING.md``).

Examples::

    python -m repro info --nodes 16 --link-length 50
    python -m repro simulate --nodes 8 --utilisation 0.8 --slots 50000
    python -m repro simulate --nodes 8 --events run.jsonl --manifest
    python -m repro inspect run.jsonl
    python -m repro compare --nodes 8 --utilisation 0.9 --seed 7
    python -m repro analyze --nodes 8 --spec 10:2 --spec 25:5
    python -m repro campaign run --spec sweep.json --store results/ --jobs 4
    python -m repro campaign report --store results/ --csv sweep.csv
    python -m repro serve --nodes 8 --probes 3
    python -m repro churn --nodes 8 --ops 10000 --clients 4 --verify-replay
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from functools import partial
from typing import NoReturn

import numpy as np

from repro.core.policy import POLICIES
from repro.core.priorities import TrafficClass
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import (
    ENGINES,
    PROTOCOLS,
    RunOptions,
    ScenarioConfig,
    build_simulation,
    make_timing,
    resolve_engine,
    run_scenario,
)
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import (
    WORKLOAD_PROFILES,
    random_workload,
    scale_connections_to_utilisation,
)


class UsageError(Exception):
    """A command's inputs lie outside the model's domain (exit 2)."""


@contextmanager
def _building() -> Iterator[None]:
    """A command's build phase: a ``ValueError`` raised inside it is the
    library rejecting an input, so it becomes a :class:`UsageError` that
    :func:`main` reports."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line,
    ``<prog>: error: <message>`` (exit 2), the form :func:`main` prints
    for a rejected input; ``--help`` shows the usage."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse ``type=`` of the counts no library object checks before
    a run starts (slots, replications, operations, clients, probes)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` of a count that may be zero (``--limit``)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nodes", type=int, default=8, help="ring size N (default 8)"
    )
    parser.add_argument(
        "--link-length",
        type=float,
        default=10.0,
        metavar="M",
        help="link length in metres (default 10)",
    )
    parser.add_argument(
        "--payload",
        type=int,
        default=1024,
        metavar="BYTES",
        help="slot payload in bytes (default 1024)",
    )


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine: the pure-Python oracle or the "
        "bit-identical vectorized core (default: $REPRO_ENGINE, else "
        "python)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="J",
        help=f"worker processes for {what} (default 1 = serial; 0 = one "
        "per CPU); results are bit-identical to a serial run",
    )


def _add_events_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=f"stream {what} to a JSONL log at PATH",
    )


def _add_manifest_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--manifest",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=f"write a run manifest ({what}) as JSON; with no PATH it "
        "lands next to --events (<events>.manifest.json) or at "
        "run.manifest.json",
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--utilisation",
        type=float,
        default=0.7,
        metavar="U",
        help="target total utilisation of the periodic set (default 0.7)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=12,
        metavar="K",
        help="number of periodic connections (default 12)",
    )
    parser.add_argument(
        "--slots",
        type=positive_int,
        default=20_000,
        metavar="N",
        help="slots to simulate (default 20000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default 0)"
    )
    parser.add_argument(
        "--drop-late",
        action="store_true",
        help="drop messages that can no longer meet their deadline",
    )
    parser.add_argument(
        "--no-spatial-reuse",
        action="store_true",
        help="analysis mode: at most one transmission per slot",
    )
    _add_jobs_arg(parser, "replications / protocol fan-out")


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "faults", "stochastic fault injection (experiment S12)"
    )
    group.add_argument(
        "--fault-node-mttf", type=float, default=None, metavar="SLOTS",
        help="mean slots between transient node failures (default: off)",
    )
    group.add_argument(
        "--fault-node-mttr", type=float, default=200.0, metavar="SLOTS",
        help="mean node outage length in slots (default 200)",
    )
    group.add_argument(
        "--fault-collection-loss", type=float, default=0.0, metavar="P",
        help="per-slot collection-packet loss probability (default 0)",
    )
    group.add_argument(
        "--fault-distribution-loss", type=float, default=0.0, metavar="P",
        help="per-slot distribution-packet loss probability (default 0)",
    )
    group.add_argument(
        "--fault-burst-p-gb", type=float, default=0.0, metavar="P",
        help="Gilbert-Elliott good->bad transition probability (default 0)",
    )
    group.add_argument(
        "--fault-burst-p-bg", type=float, default=0.1, metavar="P",
        help="Gilbert-Elliott bad->good transition probability (default 0.1)",
    )
    group.add_argument(
        "--fault-clock-glitch", type=float, default=0.0, metavar="P",
        help="per-slot clock-glitch probability (default 0)",
    )
    group.add_argument(
        "--fault-timeout-us", type=float, default=2.0, metavar="US",
        help="recovery timeout in microseconds (default 2)",
    )
    group.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault RNG seed, independent of the workload seed (default 0)",
    )


def _fault_config(args: argparse.Namespace) -> FaultConfig | None:
    config = FaultConfig(
        node_mttf_slots=args.fault_node_mttf,
        node_mttr_slots=args.fault_node_mttr,
        p_collection_loss=args.fault_collection_loss,
        p_distribution_loss=args.fault_distribution_loss,
        ge_p_good_to_bad=args.fault_burst_p_gb,
        ge_p_bad_to_good=args.fault_burst_p_bg,
        p_clock_glitch=args.fault_clock_glitch,
        timeout_s=args.fault_timeout_us * 1e-6,
        seed=args.fault_seed,
    )
    return config if config.any_active() else None


def _draw_connections(args: argparse.Namespace, rng: np.random.Generator):
    """Draw the CLI's periodic workload.

    The default ``uniform`` profile keeps the historical draw-then-pin
    path (the CLI promises the achieved load lands on the target as
    exactly as integral sizes allow); the constrained-deadline profiles
    dispatch to :func:`repro.traffic.sweeps.random_workload`.
    """
    profile = getattr(args, "workload_profile", "uniform")
    if profile == "uniform":
        conns = random_connection_set(
            rng,
            n_nodes=args.nodes,
            n_connections=args.connections,
            total_utilisation=args.utilisation,
            period_range=(10, 200),
        )
        return scale_connections_to_utilisation(conns, args.utilisation)
    return random_workload(
        rng,
        n_nodes=args.nodes,
        n_connections=args.connections,
        utilisation=args.utilisation,
        period_range=(10, 200),
        profile=profile,
    )


def _network_config(args: argparse.Namespace, **fields) -> ScenarioConfig:
    """The ring a command describes (``--nodes``, ``--link-length``,
    ``--payload``), with any further scenario ``fields``."""
    return ScenarioConfig(
        n_nodes=args.nodes,
        link_length_m=args.link_length,
        slot_payload_bytes=args.payload,
        **fields,
    )


def _build_config(
    args: argparse.Namespace, protocol: str, rng: np.random.Generator
) -> ScenarioConfig:
    """The scenario of one run: ``rng`` draws its connection set."""
    conns = _draw_connections(args, rng)
    return _network_config(
        args,
        protocol=protocol,
        policy=getattr(args, "policy", "edf"),
        spatial_reuse=not args.no_spatial_reuse,
        drop_late=args.drop_late,
        connections=tuple(conns),
        fault_config=_fault_config(args),
    )


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Reject an ``--events`` or ``--manifest`` path whose directory does
    not exist, before a build phase creates anything."""
    from pathlib import Path

    for flag, path in (
        ("--events", getattr(args, "events", None)),
        ("--manifest", getattr(args, "manifest", None)),
    ):
        if path and not Path(path).parent.is_dir():
            raise ValueError(
                f"{flag} {path}: directory {Path(path).parent} does not exist"
            )


def _event_log(args: argparse.Namespace):
    """(observer, event_log) for ``--events``; (None, None) without.  A
    log that cannot be opened is a ``ValueError``."""
    if not args.events:
        return None, None
    from repro.obs.events import EventDispatcher, JsonlEventLog

    try:
        log = JsonlEventLog(args.events)
    except OSError as exc:
        raise ValueError(
            f"cannot open --events {args.events}: {exc.strerror or exc}"
        ) from exc
    observer = EventDispatcher()
    return observer, observer.add_sink(log)


def cmd_info(args: argparse.Namespace) -> int:
    """The `info` subcommand: print the analytical model."""
    with _building():
        t = make_timing(_network_config(args))
    print(f"CCR-EDF network: N={args.nodes}, L={args.link_length} m/link, "
          f"payload {args.payload} B")
    print(f"  slot length (operating)   : {t.slot_length_s * 1e6:.3f} us")
    print(f"  min slot length (Eq. 2)   : {t.min_slot_length_s * 1e6:.3f} us")
    print(f"  worst hand-over (Eq. 1)   : {t.max_handover_time_s * 1e9:.1f} ns")
    print(f"  worst-case latency (Eq. 4): {t.worst_case_latency_s * 1e6:.3f} us")
    print(f"  U_max (Eq. 6)             : {t.u_max:.4f}")
    print(f"  guaranteed data rate      : "
          f"{t.guaranteed_data_rate_bit_per_s() / 1e9:.3f} Gbit/s")
    return 0


def _print_report(protocol: str, report) -> None:
    rt = report.class_stats(TrafficClass.RT_CONNECTION)
    print(f"protocol            : {protocol}")
    print(f"  slots simulated   : {report.slots_simulated}")
    print(f"  wall time         : {report.wall_time_s * 1e3:.3f} ms")
    print(f"  RT released       : {rt.released}")
    print(f"  RT delivered      : {rt.delivered}")
    print(f"  RT missed         : {rt.deadline_missed} "
          f"(ratio {rt.deadline_miss_ratio:.4f})")
    print(f"  RT mean latency   : {rt.mean_latency_slots:.2f} slots")
    print(f"  utilisation       : {report.utilisation:.4f}")
    print(f"  reuse factor      : {report.spatial_reuse_factor:.2f}")
    print(f"  break denials     : {report.break_denials}")
    avail = report.availability_stats
    if avail.total_fault_events or avail.recoveries:
        print(f"  -- availability --")
        print(f"  fault events      : {avail.total_fault_events} "
              f"({dict(avail.fault_events)})")
        print(f"  recoveries        : {avail.recoveries}")
        print(f"  slots lost        : {avail.slots_lost}")
        print(f"  availability      : {report.availability:.6f}")
        print(f"  mean recovery     : {avail.mean_time_to_recover_s * 1e6:.2f} us")
        print(f"  node fail/rejoin  : {avail.node_failures}/{avail.node_rejoins}")
        print(f"  RT missed (fault) : "
              f"{rt.deadline_missed_in_fault_window} of {rt.deadline_missed}")


def _engine_outcome(sim, requested: str | None) -> dict:
    """Which engine tier executed ``sim``'s last run (manifest form).

    ``backend`` is ``"compiled"`` (the C micro-kernel), ``"numpy"`` (the
    SoA kernel, which ran because the compiled tier refused for
    ``numpy_reason``) or ``"oracle"`` (the pure-Python slot loop --
    requested, or fallen back to for ``fallback_reason``).
    """
    tiers = {"compiled": "compiled", "python": "numpy"}
    return {
        "requested": resolve_engine(requested),
        "backend": tiers.get(getattr(sim, "vector_backend", None), "oracle"),
        "fallback_reason": getattr(sim, "vector_fallback_reason", None),
        "numpy_reason": getattr(sim, "vector_numpy_reason", None),
    }


def _engine_label(outcome: dict) -> str:
    """One-line console form of :func:`_engine_outcome`."""
    if outcome["requested"] == "python":
        return "python"
    if outcome["backend"] == "oracle":
        return f"vector -> oracle: {outcome['fallback_reason']}"
    if outcome["backend"] == "numpy":
        return f"vector (numpy: {outcome['numpy_reason']})"
    return f"vector ({outcome['backend']})"


def _build_replication(
    args: argparse.Namespace, rng: np.random.Generator
):
    """Replication builder for ``simulate --replications``.

    Module-level (not a closure) so it survives pickling into worker
    processes when ``--jobs`` fans replications out; the replication's
    generator redraws the whole workload, so replications differ in
    workload *and* arrival noise.
    """
    config = _build_config(args, args.protocol, rng)
    return build_simulation(config, RunOptions(engine=args.engine))


#: Metrics reported by ``simulate --replications``.
_REPLICATION_METRICS = {
    "rt_miss_ratio": lambda r: r.class_stats(
        TrafficClass.RT_CONNECTION
    ).deadline_miss_ratio,
    "rt_mean_latency_slots": lambda r: r.class_stats(
        TrafficClass.RT_CONNECTION
    ).mean_latency_slots,
    "utilisation": lambda r: r.utilisation,
    "availability": lambda r: r.availability,
}


def _write_manifest(args: argparse.Namespace, **fields) -> None:
    """Write the ``--manifest`` when one was requested: a run manifest of
    ``fields``, its ``extra`` led by the command line.  With no PATH it
    lands next to ``--events``, else at ``run.manifest.json``."""
    if args.manifest is None:
        return
    from pathlib import Path

    from repro.obs.manifest import RunManifest, manifest_path_for

    if args.manifest:
        path = Path(args.manifest)
    elif args.events:
        path = manifest_path_for(args.events)
    else:
        path = Path("run.manifest.json")
    fields["extra"] = {"argv": list(sys.argv), **fields["extra"]}
    RunManifest.collect(**fields).write(path)
    print(f"manifest written    : {path}")


def cmd_simulate(args: argparse.Namespace) -> int:
    """The `simulate` subcommand: one protocol, one workload."""
    import time as _time

    with _building():
        _check_output_dirs(args)
        if args.replications > 1 and (args.events or args.trace):
            raise ValueError(
                "--events and --trace record one run; they cannot be "
                "combined with --replications > 1"
            )
        # Under --replications this build is a probe: each replication
        # draws its own workload from the same arguments, so an input
        # outside the model's domain is rejected here, before any output.
        config = _build_config(
            args, args.protocol, np.random.default_rng(args.seed)
        )
        profiler = None
        if args.profile:
            from repro.sim.profiling import PhaseProfiler

            profiler = PhaseProfiler()
        trace = None
        if args.trace:
            from repro.sim.trace import SlotTrace

            trace = SlotTrace(max_records=args.trace_max)
        observer, event_log = _event_log(args)
        try:
            sim = build_simulation(
                config,
                RunOptions(
                    profiler=profiler,
                    trace=trace,
                    observer=observer,
                    engine=args.engine,
                ),
            )
        except ValueError:
            # The engine logs its header while it is built, so the log
            # is opened first; a rejected input leaves no log behind.
            if observer is not None:
                observer.close()
                event_log.path.unlink()
            raise
    if args.replications > 1:
        from repro.sim.batch import replicate, resolve_jobs

        jobs = min(resolve_jobs(args.jobs), args.replications)
        print(f"replicating: {args.replications} seeds from master seed "
              f"{args.seed}, {jobs} job(s)")
        t0 = _time.perf_counter()
        result = replicate(
            partial(_build_replication, args),
            n_slots=args.slots,
            metrics=_REPLICATION_METRICS,
            n_replications=args.replications,
            master_seed=args.seed,
            n_jobs=args.jobs,
        )
        elapsed = _time.perf_counter() - t0
        print(f"protocol            : {args.protocol}")
        for name, summary in result.metrics.items():
            lo, hi = summary.confidence_interval()
            print(f"  {name:20s}: {summary.mean:.4f} "
                  f"(95% CI [{lo:.4f}, {hi:.4f}], n={summary.n})")
        _write_manifest(
            args,
            master_seed=args.seed,
            n_slots=args.slots,
            registry=result.registry,
            elapsed_s=elapsed,
            extra={
                "replications": args.replications,
                "metrics": {
                    name: s.mean for name, s in result.metrics.items()
                },
            },
        )
        return 0

    achieved = sum(c.utilisation for c in config.connections)
    print(f"workload: {args.connections} connections, "
          f"U={achieved:.3f} (target {args.utilisation}), seed {args.seed}")
    t0 = _time.perf_counter()
    report = sim.run(args.slots)
    elapsed = _time.perf_counter() - t0
    if observer is not None:
        observer.close()
    _print_report(args.protocol, report)
    engine = _engine_outcome(sim, args.engine)
    print(f"engine              : {_engine_label(engine)}")
    if event_log is not None:
        print(f"event log           : {args.events} "
              f"({event_log.events_written} events)")
    if trace is not None:
        print(f"trace               : {len(trace.records)} slot records")
        if trace.truncated:
            print(
                f"warning: trace truncated at {trace.max_records} records; "
                f"{trace.dropped} later slot records were dropped "
                f"(raise --trace-max, or stream with --events instead)",
                file=sys.stderr,
            )
    _write_manifest(
        args,
        scenario=config,
        master_seed=args.seed,
        n_slots=args.slots,
        report=report,
        profiler=profiler,
        elapsed_s=elapsed,
        extra={"events": args.events or None, "engine": engine},
    )
    if profiler is not None:
        print("\nslot-loop phase profile:")
        print(profiler.format_table())
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """The `inspect` subcommand: replay an event log into totals."""
    from repro.obs.replay import format_summary, summarise_log

    with _building():
        try:
            summary = summarise_log(args.events)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot replay {args.events}: {exc}") from exc
    print(format_summary(summary))
    return 0


def _compare_one(args: argparse.Namespace, protocol: str):
    """One protocol's row of the comparison table.

    Module-level so ``compare --jobs`` can evaluate protocols in
    parallel worker processes; each worker rebuilds the identical
    workload from the shared seed.
    """
    config = _build_config(args, protocol, np.random.default_rng(args.seed))
    report = run_scenario(
        config, n_slots=args.slots, options=RunOptions(engine=args.engine)
    )
    rt = report.class_stats(TrafficClass.RT_CONNECTION)
    return (
        protocol,
        rt.deadline_miss_ratio,
        rt.mean_latency_slots,
        report.utilisation,
        report.spatial_reuse_factor,
        report.break_denials,
        report.availability,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """The `compare` subcommand: all protocols, identical workload."""
    from repro.sim.batch import ordered_map

    with _building():
        # Every protocol's run rebuilds this workload (_compare_one); the
        # probe build rejects an out-of-domain input before any output.
        config = _build_config(
            args, "ccr-edf", np.random.default_rng(args.seed)
        )
        build_simulation(config, RunOptions(engine=args.engine))
    rows = ordered_map(partial(_compare_one, args), PROTOCOLS, args.jobs)
    achieved = sum(c.utilisation for c in config.connections)
    print(f"workload: U={achieved:.3f}, {args.connections} connections, "
          f"seed {args.seed}, {args.slots} slots\n")
    header = (f"{'protocol':10s} {'miss':>8s} {'latency':>8s} {'util':>7s} "
              f"{'reuse':>6s} {'breaks':>7s} {'avail':>7s}")
    print(header)
    print("-" * len(header))
    for protocol, miss, lat, util, reuse, breaks, avail in rows:
        print(
            f"{protocol:10s} {miss:8.4f} {lat:8.2f} {util:7.4f} "
            f"{reuse:6.2f} {breaks:7d} {avail:7.4f}"
        )
    return 0


def _campaign_for(args: argparse.Namespace, create: bool = False):
    """Resolve (campaign, store) for the campaign subcommands.

    ``--spec`` loads a JSON campaign spec; without it the spec snapshot
    saved in the store directory by a previous ``run`` is used.  A spec
    that cannot be loaded, or that describes a point outside the
    model's domain, is a ``ValueError``, and so is a ``--store``
    directory that does not exist -- unless ``create`` (``campaign
    run``) may make it for a spec that loaded, so a rejected input
    creates no store.
    """
    from repro.campaign import Campaign, ResultStore

    try:
        campaign = Campaign.from_json_file(args.spec) if args.spec else None
        if not (create and campaign is not None):
            _check_store_exists(args)
        store = ResultStore(args.store)
        if campaign is None:
            campaign = store.load_campaign()
    except (FileNotFoundError, ValueError, RuntimeError) as exc:
        raise ValueError(f"cannot load campaign: {exc}") from exc
    return campaign, store


def _check_store_exists(args: argparse.Namespace) -> None:
    """A ``--store`` that names no directory is a ``ValueError`` for the
    commands that only read a store (opening one would create it)."""
    from pathlib import Path

    if not Path(args.store).is_dir():
        raise ValueError(f"no store at {args.store}")


#: ``campaign run`` exit code: runs remain (limit / drain); resumable.
EXIT_CAMPAIGN_INCOMPLETE = 3
#: ``campaign run`` exit code: at least one run was quarantined.
EXIT_CAMPAIGN_QUARANTINED = 4


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """``campaign run``: execute the uncached remainder of a campaign.

    Exit codes: 0 = every run is in the store; 3 = incomplete but
    resumable (``--limit`` or a drain signal); 4 = one or more runs
    exhausted their attempt budget and were quarantined.
    """
    import dataclasses as _dataclasses
    import time as _time

    from repro.campaign import run_campaign

    with _building():
        _check_output_dirs(args)
        campaign, store = _campaign_for(args, create=True)
        retry = campaign.retry
        if args.max_attempts is not None:
            retry = _dataclasses.replace(retry, max_attempts=args.max_attempts)
        if args.run_timeout is not None:
            retry = _dataclasses.replace(
                retry, run_timeout_s=args.run_timeout or None
            )
        if retry != campaign.retry:
            campaign = _dataclasses.replace(campaign, retry=retry)
        engine = getattr(args, "engine", None)
        if engine is not None and engine != campaign.engine:
            # Like the retry overrides above: a host-side knob, so
            # changing it never invalidates cached results.
            campaign = _dataclasses.replace(campaign, engine=engine)
        observer, event_log = _event_log(args)
    print(f"campaign '{campaign.name}': {campaign.grid_size} grid points x "
          f"{campaign.n_replications} replications = "
          f"{campaign.total_runs} runs -> {store.root}")
    t0 = _time.perf_counter()
    try:
        summary = run_campaign(
            campaign, store, n_jobs=args.jobs, limit=args.limit,
            observer=observer,
        )
    finally:
        if observer is not None:
            observer.close()
    elapsed = _time.perf_counter() - t0
    print(f"  executed {summary.executed}, skipped {summary.skipped} cached, "
          f"{summary.remaining} remaining ({elapsed:.2f} s)")
    if summary.corrupt_replaced:
        print(f"  {summary.corrupt_replaced} corrupt cache entries replaced "
              "by re-runs")
    if summary.failed_attempts:
        print(f"  {summary.failed_attempts} failed attempts, "
              f"{summary.pool_rebuilds} worker-pool rebuilds")
    if event_log is not None:
        print(f"  event log: {args.events} "
              f"({event_log.events_written} events)")
    if summary.quarantined:
        print(f"  {summary.quarantined} runs QUARANTINED after "
              f"{campaign.retry.max_attempts} attempts each; see "
              f"{store.failed_dir}/ (rerun retries them with a fresh "
              "budget)", file=sys.stderr)
        return EXIT_CAMPAIGN_QUARANTINED
    if summary.interrupted:
        print("  interrupted; drained in-flight runs were persisted -- "
              "rerun to continue", file=sys.stderr)
        return EXIT_CAMPAIGN_INCOMPLETE
    if not summary.complete:
        print("  campaign incomplete; rerun to continue (cached runs are "
              "skipped)")
        return EXIT_CAMPAIGN_INCOMPLETE
    return 0


def cmd_campaign_fsck(args: argparse.Namespace) -> int:
    """``campaign fsck``: verify store integrity, optionally dropping
    damaged records (exit 0 = clean / repaired, 1 = damage remains)."""
    from repro.campaign import ResultStore

    with _building():
        _check_store_exists(args)
    store = ResultStore(args.store)
    report = store.fsck(repair=args.repair)
    print(f"store {store.root}: {report.scanned} records scanned, "
          f"{report.ok} verified, {report.legacy} legacy (no checksum), "
          f"{report.superseded} superseded")
    for where, reason in report.corrupt:
        print(f"  CORRUPT {where}: {reason}")
    for path in report.stray_tmp:
        print(f"  stray tmp file: {path}")
    if report.repaired or (args.repair and report.stray_tmp):
        removed = len(report.repaired) + len(report.stray_tmp)
        print(f"  dropped {removed} damaged records / stray files; re-run "
              "the campaign to recompute them")
    elif report.corrupt or report.stray_tmp:
        print("  run with --repair to drop them (a rerun recomputes "
              "dropped records)")
    return 0 if report.clean else 1


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """``campaign status``: cached/pending/quarantined runs."""
    from repro.campaign import expand_runs, run_key

    with _building():
        campaign, store = _campaign_for(args)
    done = sum(1 for spec in expand_runs(campaign) if run_key(spec) in store)
    total = campaign.total_runs
    quarantined = len(store.failure_keys())
    print(f"campaign '{campaign.name}' in {store.root}")
    print(f"  grid     : {campaign.grid_size} points "
          f"({' x '.join(campaign.axis_names) or 'no axes'})")
    print(f"  runs     : {done}/{total} cached "
          f"({total - done} pending)")
    print(f"  store    : {len(store)} records")
    if quarantined:
        print(f"  FAILED   : {quarantined} quarantined runs in "
              f"{store.failed_dir}/ (`campaign run` retries them)")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """``campaign report``: aggregate the store into CSV/JSON artifacts."""
    from repro.campaign import CampaignReport

    with _building():
        campaign, store = _campaign_for(args)
        report = CampaignReport.from_store(campaign, store)
        if not report.complete and not args.partial:
            raise ValueError(
                f"{len(report.missing)} of {campaign.total_runs} runs not "
                "cached yet; `campaign run` to finish, or --partial to "
                "report what is there"
            )
        marginals = [(m, report.marginals(m)) for m in args.marginal]
    if args.csv:
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.collect(
            master_seed=campaign.master_seed,
            n_slots=campaign.n_slots,
            extra={"argv": list(sys.argv), "campaign": campaign.name,
                   "rows": len(report.rows)},
        )
        path = report.to_csv(args.csv, manifest=manifest)
        print(f"rows written        : {len(report.rows)} -> {path}")
    if args.json:
        path = report.to_json(args.json)
        print(f"json written        : {path}")
    for metric, per_axis in marginals:
        print(f"marginal means of {metric}:")
        for axis, per_value in per_axis.items():
            for value, mean in per_value.items():
                print(f"  {axis:16s} = {value!s:12s}: {mean:.4f}")
    if not (args.csv or args.json or args.marginal):
        print(f"campaign '{campaign.name}': {len(report.rows)} rows "
              f"({len(report.missing)} missing); use --csv/--json/--marginal")
    return 0


def _verify_service_replay(service, events_path: str) -> int:
    """Cross-check live service totals against the event log (0 = ok)."""
    from repro.obs.replay import summarise_log

    summary = summarise_log(events_path)
    live_requests = dict(service.request_totals)
    replayed_requests = dict(summary.service_requests)
    live_utilisation = service.controller.utilisation
    ok = (
        replayed_requests == live_requests
        and summary.service_backpressure == service.backpressure_total
        and summary.service_utilisation == live_utilisation
    )
    if ok:
        print(f"replay verified     : {sum(live_requests.values())} "
              f"requests, {service.backpressure_total} backpressure, "
              f"utilisation {live_utilisation!r} -- log matches live "
              "totals bit-identically")
        return 0
    print("replay MISMATCH against live service totals:", file=sys.stderr)
    print(f"  live    : {live_requests} bp={service.backpressure_total} "
          f"u={live_utilisation!r}", file=sys.stderr)
    print(f"  replayed: {replayed_requests} "
          f"bp={summary.service_backpressure} "
          f"u={summary.service_utilisation!r}", file=sys.stderr)
    return 1


def _run_service(
    args: argparse.Namespace,
    session,
    banner: str,
    report=lambda result, elapsed: {},
    master_seed: int | None = None,
) -> int:
    """The one lifecycle of ``serve`` and ``churn``.

    Builds the service over the hosted ring (no initial workload: every
    connection arrives through the service API), then ``session(service)``
    -- which builds the command's clients and returns the coroutine
    function that drives them -- and the ``--events`` log.  Prints
    ``banner``, runs the session, lets ``report(result, elapsed)`` print
    the command's own lines and return its manifest ``extra`` entries,
    then prints the service summary, writes the manifest and runs
    ``--verify-replay``.
    """
    import asyncio
    import time as _time

    from repro.service import AdmissionService

    with _building():
        _check_output_dirs(args)
        if args.verify_replay and not args.events:
            raise ValueError("--verify-replay requires --events")
        service = AdmissionService(
            _network_config(args),
            admission_node=args.admission_node,
            queue_depth=args.queue_depth,
            engine=args.engine,
        )
        run = session(service)
        # Opened last, so a rejected input leaves no empty log behind;
        # the service attaches its observer when it starts.
        service.observer, event_log = _event_log(args)
    print(banner)
    t0 = _time.perf_counter()
    try:
        result = asyncio.run(run())
    finally:
        if service.observer is not None:
            service.observer.close()
    elapsed = _time.perf_counter() - t0
    extra = report(result, elapsed)
    summary = service.summary()
    latency = summary["latency"]
    print(f"requests served     : {summary['requests_served']} "
          f"({summary['requests']})")
    print(f"backpressure        : {summary['backpressure']} refusals")
    print(f"admission latency   : p50 {latency['p50_s'] * 1e6:.1f} us, "
          f"p99 {latency['p99_s'] * 1e6:.1f} us (n={latency['count']})")
    print(f"final state         : slot {summary['slot']}, "
          f"utilisation {summary['utilisation']:.4f}")
    print("shutdown            : clean (queue drained)")
    if event_log is not None:
        print(f"event log           : {args.events} "
              f"({event_log.events_written} events)")
    _write_manifest(
        args,
        scenario=service.config,
        registry=service.registry,
        elapsed_s=elapsed,
        master_seed=master_seed,
        extra={"service": summary, "events": args.events or None, **extra},
    )
    if args.verify_replay:
        return _verify_service_replay(service, args.events)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """The `serve` subcommand: lifecycle-check the live admission service.

    Starts the service over a hosted ring, issues ``--probes`` status
    requests through the canonical async client, and shuts down cleanly.
    The in-process service has no network listener (clients share the
    event loop); this command is the smoke harness for its lifecycle,
    and ``repro churn`` is the load harness.
    """
    from repro.service import AdmissionClient

    def session(service):
        async def _run() -> None:
            async with service:
                client = AdmissionClient(service)
                for _ in range(args.probes):
                    status = await client.status()
                    print(f"status              : slot {status.slot}, "
                          f"U {status.utilisation:.4f}/{status.u_max:.4f}, "
                          f"{status.admitted} admitted, "
                          f"{status.suspended} suspended")

        return _run

    return _run_service(
        args,
        session,
        f"admission service   : N={args.nodes}, admission node "
        f"{args.admission_node}, queue depth {args.queue_depth}",
    )


def cmd_churn(args: argparse.Namespace) -> int:
    """The `churn` subcommand: the committed service load harness.

    ``--clients`` concurrent churn drivers split the ``--ops`` target
    and play seeded arrival/departure storms (plus fault cycles with
    ``--fault-every``) against one service; the run reports throughput,
    admission-latency percentiles and backpressure, writes them to the
    manifest, and ``--verify-replay`` proves the event log reproduces
    the live totals bit-identically.
    """
    import asyncio

    from repro.service import AdmissionClient, ChurnDriver, ChurnStats

    ops_per_client = -(-args.ops // args.clients)  # ceil division

    def session(service):
        drivers = [
            ChurnDriver(
                AdmissionClient(service),
                seed=args.seed + i,
                n_nodes=args.nodes,
                admission_node=args.admission_node,
                burst=args.burst,
                close_fraction=args.close_fraction,
                fault_every=args.fault_every,
            )
            for i in range(args.clients)
        ]

        async def _run() -> ChurnStats:
            async with service:
                results = await asyncio.gather(
                    *(d.run_until_ops(ops_per_client) for d in drivers)
                )
            merged = ChurnStats()
            for stats in results:
                merged.merge(stats)
            return merged

        return _run

    def report(merged: ChurnStats, elapsed: float) -> dict:
        rate = merged.operations / elapsed if elapsed > 0 else float("inf")
        print(f"operations          : {merged.operations} "
              f"({merged.opens} open / {merged.closes} close / "
              f"{merged.suspends + merged.resumes} fault) in {elapsed:.2f} s "
              f"= {rate:.0f} ops/s")
        print(f"admission decisions : {merged.open_accepted} accepted, "
              f"{merged.open_rejected} rejected, "
              f"{merged.resume_rejected} resume-rejected, "
              f"{merged.errors} errors")
        return {"churn": merged.as_dict(), "churn_rate_ops_per_s": rate}

    return _run_service(
        args,
        session,
        f"churn harness       : {args.clients} clients x "
        f">={ops_per_client} ops against N={args.nodes}, "
        f"queue depth {args.queue_depth}, seed {args.seed}",
        report,
        master_seed=args.seed,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    """The `analyze` subcommand: admission + WCRT for connection specs."""
    from repro.analysis.response_time import edf_worst_case_response_slots
    from repro.core.admission import AdmissionController
    from repro.core.connection import LogicalRealTimeConnection

    with _building():
        timing = make_timing(_network_config(args))
    controller = AdmissionController(timing)

    conns = []
    for i, raw in enumerate(args.spec):
        try:
            period_s, size_s = raw.split(":")
            period, size = int(period_s), int(size_s)
        except ValueError:
            print(f"bad --spec {raw!r}: expected PERIOD:SIZE in slots",
                  file=sys.stderr)
            return 2
        src = i % args.nodes
        dst = (src + 1 + i) % args.nodes
        if dst == src:
            dst = (src + 1) % args.nodes
        try:
            conn = LogicalRealTimeConnection(
                source=src,
                destinations=frozenset([dst]),
                period_slots=period,
                size_slots=size,
            )
        except ValueError as exc:
            print(f"bad --spec {raw!r}: {exc}", file=sys.stderr)
            return 2
        conns.append(conn)
    decisions = [controller.request(conn) for conn in conns]

    admitted = [c for c, d in zip(conns, decisions) if d.accepted]
    print(f"network: N={args.nodes}, U_max={timing.u_max:.4f}")
    print(f"{'spec':>10s} {'U':>7s} {'admitted':>9s} {'WCRT [slots]':>13s} "
          f"{'window':>7s}")
    for conn, decision in zip(conns, decisions):
        if decision.accepted:
            wcrt = edf_worst_case_response_slots(admitted, conn.connection_id)
            wcrt_str = str(wcrt)
        else:
            wcrt_str = "-"
        print(
            f"{conn.period_slots:>5d}:{conn.size_slots:<4d} "
            f"{conn.utilisation:7.3f} "
            f"{'yes' if decision.accepted else 'NO':>9s} "
            f"{wcrt_str:>13s} {conn.period_slots + 1:>7d}"
        )
    print(f"admitted utilisation: {controller.utilisation:.4f} "
          f"(headroom {controller.u_max - controller.utilisation:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for `python -m repro`."""
    parser = _Parser(
        prog="repro",
        description="CCR-EDF fibre-ribbon ring network (IPDPS 2002) tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the analytical network model")
    _add_network_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_sim = sub.add_parser("simulate", help="simulate a random workload")
    _add_network_args(p_sim)
    _add_workload_args(p_sim)
    p_sim.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        default="ccr-edf",
        help="MAC protocol (default ccr-edf)",
    )
    p_sim.add_argument(
        "--policy",
        choices=POLICIES,
        default="edf",
        help="arbitration policy encoded into the priority field "
        "(default edf; rm and fifo require a TCMA protocol)",
    )
    p_sim.add_argument(
        "--workload-profile",
        choices=WORKLOAD_PROFILES,
        default="uniform",
        help="workload generator family (default uniform; industrial "
        "adds tight-deadline D<P sensor connections, ama-andam is the "
        "fixed four-sensor case-study suite)",
    )
    p_sim.add_argument(
        "--replications",
        type=positive_int,
        default=1,
        metavar="R",
        help="independent replications to aggregate (default 1); with "
        "--jobs they run in parallel processes",
    )
    p_sim.add_argument(
        "--profile",
        action="store_true",
        help="time the slot loop per phase and print the table",
    )
    _add_events_arg(
        p_sim, "typed events (slots, faults, recoveries, ...); replay it "
        "with `repro inspect`",
    )
    _add_manifest_arg(p_sim, "scenario, seed, versions, host, profile")
    p_sim.add_argument(
        "--trace",
        action="store_true",
        help="keep an in-memory per-slot trace (disables the "
        "fast-forward; see --trace-max)",
    )
    p_sim.add_argument(
        "--trace-max",
        type=int,
        default=100_000,
        metavar="N",
        help="slot records the trace retains before truncating "
        "(default 100000); a warning reports any dropped records",
    )
    _add_fault_args(p_sim)
    _add_engine_arg(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", help="run the same workload on every protocol"
    )
    _add_network_args(p_cmp)
    _add_workload_args(p_cmp)
    _add_fault_args(p_cmp)
    _add_engine_arg(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ana = sub.add_parser(
        "analyze", help="admission + worst-case response times for specs"
    )
    _add_network_args(p_ana)
    p_ana.add_argument(
        "--spec",
        action="append",
        required=True,
        metavar="PERIOD:SIZE",
        help="connection spec in slots (repeatable), e.g. --spec 10:2",
    )
    p_ana.set_defaults(func=cmd_analyze)

    p_camp = sub.add_parser(
        "campaign",
        help="declarative multi-scenario sweeps (run / status / report)",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", required=True, metavar="DIR",
            help="result store directory (created on first run)",
        )
        p.add_argument(
            "--spec",
            metavar="JSON",
            default=None,
            help="campaign spec file; optional after the first run "
            "(the store keeps a snapshot)",
        )

    p_crun = camp_sub.add_parser(
        "run", help="execute the campaign's uncached runs into the store"
    )
    _add_campaign_common(p_crun)
    _add_jobs_arg(p_crun, "the pending runs")
    p_crun.add_argument(
        "--limit",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="execute at most N new runs then stop (resume later; "
        "cached runs never count)",
    )
    p_crun.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="K",
        help="override the spec's retry budget: quarantine a run after "
        "K failed attempts (default: from spec, normally 3)",
    )
    p_crun.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the spec's per-run wall-clock timeout (0 "
        "disables; default: from spec)",
    )
    _add_events_arg(
        p_crun, "campaign-level events (retries, quarantines, pool "
        "rebuilds, corruption)",
    )
    _add_engine_arg(p_crun)
    p_crun.set_defaults(func=cmd_campaign_run)

    p_cstat = camp_sub.add_parser(
        "status", help="show cached vs pending runs of a campaign"
    )
    _add_campaign_common(p_cstat)
    p_cstat.set_defaults(func=cmd_campaign_status)

    p_cfsck = camp_sub.add_parser(
        "fsck",
        help="verify result-store integrity (checksums, parseability)",
    )
    p_cfsck.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory to scan",
    )
    p_cfsck.add_argument(
        "--repair",
        action="store_true",
        help="rewrite the run segment without corrupt, torn or "
        "superseded records and delete stray tmp files, so the next "
        "`campaign run` recomputes what was dropped",
    )
    p_cfsck.set_defaults(func=cmd_campaign_fsck)

    p_crep = camp_sub.add_parser(
        "report", help="aggregate the store into CSV/JSON artifacts"
    )
    _add_campaign_common(p_crep)
    p_crep.add_argument(
        "--csv", metavar="PATH", default=None,
        help="write long-form rows as CSV (plus a manifest sibling)",
    )
    p_crep.add_argument(
        "--json", metavar="PATH", default=None,
        help="write rows + per-axis marginals as JSON",
    )
    p_crep.add_argument(
        "--marginal",
        action="append",
        default=[],
        metavar="METRIC",
        help="print per-axis marginal means of METRIC (repeatable), "
        "e.g. --marginal rt_miss_ratio",
    )
    p_crep.add_argument(
        "--partial",
        action="store_true",
        help="report even when some runs are not cached yet",
    )
    p_crep.set_defaults(func=cmd_campaign_report)

    def _add_service_args(p: argparse.ArgumentParser) -> None:
        _add_network_args(p)
        p.add_argument(
            "--admission-node",
            type=int,
            default=0,
            metavar="NODE",
            help="the designated admission-control node (default 0)",
        )
        p.add_argument(
            "--queue-depth",
            type=int,
            default=64,
            metavar="N",
            help="bounded request-queue depth; a full queue rejects with "
            "typed backpressure instead of queueing (default 64)",
        )
        _add_events_arg(
            p, "every service decision (and the hosted ring's events); "
            "replay it with `repro inspect`",
        )
        _add_manifest_arg(
            p, "the service summary: latency p50/p99, backpressure, churn"
        )
        p.add_argument(
            "--verify-replay",
            action="store_true",
            help="after shutdown, replay the --events log and fail "
            "unless it reproduces the live totals bit-identically "
            "(requires --events)",
        )
        _add_engine_arg(p)

    p_serve = sub.add_parser(
        "serve",
        help="stand the live asyncio admission service up and probe it",
    )
    _add_service_args(p_serve)
    p_serve.add_argument(
        "--probes",
        type=positive_int,
        default=1,
        metavar="N",
        help="status requests to issue through the async client before "
        "shutting down (default 1)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_churn = sub.add_parser(
        "churn",
        help="load-test the admission service with churn storms",
    )
    _add_service_args(p_churn)
    p_churn.add_argument(
        "--ops",
        type=positive_int,
        default=10_000,
        metavar="N",
        help="total operations (opens/closes/faults/refusals) the "
        "harness must sustain (default 10000)",
    )
    p_churn.add_argument(
        "--clients",
        type=positive_int,
        default=4,
        metavar="K",
        help="concurrent churn clients sharing the service (default 4)",
    )
    p_churn.add_argument(
        "--burst",
        type=int,
        default=4,
        metavar="B",
        help="max operations per churn cycle per client (default 4)",
    )
    p_churn.add_argument(
        "--close-fraction",
        type=float,
        default=0.4,
        metavar="P",
        help="probability a cycle operation closes an open connection "
        "instead of opening a new one (default 0.4)",
    )
    p_churn.add_argument(
        "--fault-every",
        type=int,
        default=0,
        metavar="C",
        help="every C cycles, suspend a random node then resume it at "
        "the next fault point (default 0 = no fault cycles)",
    )
    p_churn.add_argument(
        "--seed",
        type=int,
        default=0,
        help="churn RNG master seed; client i churns with seed+i "
        "(default 0)",
    )
    p_churn.set_defaults(func=cmd_churn)

    p_ins = sub.add_parser(
        "inspect",
        help="replay a JSONL event log and print reconstructed totals",
    )
    p_ins.add_argument(
        "events", metavar="EVENTS_JSONL", help="event log written by "
        "`simulate --events`",
    )
    p_ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The one place a :class:`UsageError` -- an input some command's build
    rejected -- becomes exit status 2 and one stderr line.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        command = " ".join(
            filter(None, (args.command, getattr(args, "campaign_command", None)))
        )
        print(f"{parser.prog} {command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
