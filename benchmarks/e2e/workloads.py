"""The six workloads: inputs from the seed, one repetition, checks, layers.

Every workload has the same shape (see :class:`Workload`): inputs are
generated here from ``--seed`` and handed to the program as a plain
``ScenarioConfig`` / ``Campaign`` / operation sequence; ``setup()`` is
what a user pays before the first result (build, load the compiled
kernel, one short warm-up); ``repetition()`` does one fixed amount of
work on fresh state and returns a :class:`harness.Rep`; ``check()``
decides whether the outputs were correct.  With a tracer, the
repetition wraps the public call boundaries of each layer it enters
and ``layer_metrics()`` reduces the trace to the per-layer numbers.

Sizes are the issue's, scaled by one common factor of about 0.1 so
that ten or more repetitions fit in a ten-second run.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np
from harness import Rep, check_digests, digest_of, quantile, reference_kernel
from harness import speed_factor
from tracing import BUSY, CALLS, ITEMS, USEFUL, Tracer

from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    WorkloadSpec,
    execute_run,
    expand_runs,
    run_campaign,
    run_key,
)
from repro.core.admission import AdmissionController
from repro.core.connection import LogicalRealTimeConnection
from repro.obs.events import EventDispatcher, JsonlEventLog
from repro.obs.replay import summarise_log
from repro.report import report_row
from repro.service import AdmissionClient, AdmissionService, ChurnDriver
from repro.service.messages import ServiceBackpressure
from repro.services.api import ConnectionClient, MessageInjector
from repro.sim.metrics import SimulationReport
from repro.sim.runner import (
    RunOptions,
    ScenarioConfig,
    build_simulation,
    make_timing,
)
from repro.sim.vector import VectorSimulation
from repro.traffic.periodic import ConnectionSource, random_connection_set
from repro.traffic.sweeps import (
    random_workload,
    scale_connections_to_utilisation,
)

clock = time.perf_counter

E2E_DIR = Path(__file__).resolve().parent
#: The program under test: ``src/`` of the checkout this file sits in.
SRC_DIR = E2E_DIR.parents[1] / "src"

#: Seed of the one reference draw that fixes the offered load of the
#: ring scenarios (the paper's year).
REFERENCE_DRAW = 2002


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def ring_scenario(
    seed: int,
    n_nodes: int,
    n_connections: int,
    utilisation: float,
    period_range: tuple[int, int],
) -> ScenarioConfig:
    """A ring scenario whose *load* is fixed and whose *placement* is seeded.

    The periods and sizes -- hence the utilisation and the message rate,
    which set the simulator's cost per slot -- are one reference draw of
    the program's own generator (``random_connection_set`` scaled to the
    target), the same for every seed.  The seed decides where that load
    sits: which node sources each connection, how many hops downstream
    its destination is, and its phase.  Drawing the periods from the
    seed too moved the oracle's slots/s by +-20 % from seed to seed,
    which says nothing about the program.
    """
    reference = scale_connections_to_utilisation(
        random_connection_set(
            np.random.default_rng(REFERENCE_DRAW),
            n_nodes,
            n_connections,
            0.5,
            period_range=period_range,
        ),
        utilisation,
    )
    rng = np.random.default_rng(seed)
    sources = [c.source for c in reference]
    hops = [
        (next(iter(c.destinations)) - c.source) % n_nodes for c in reference
    ]
    rng.shuffle(sources)
    rng.shuffle(hops)
    rotation = int(rng.integers(n_nodes))
    connections = []
    for ref, source, hop in zip(reference, sources, hops):
        source = (source + rotation) % n_nodes
        connections.append(
            LogicalRealTimeConnection(
                source=source,
                destinations=frozenset([(source + hop) % n_nodes]),
                period_slots=ref.period_slots,
                size_slots=ref.size_slots,
                phase_slots=int(rng.integers(ref.period_slots)),
            )
        )
    return ScenarioConfig(n_nodes=n_nodes, connections=tuple(connections))


def report_digest(
    report: SimulationReport, config: ScenarioConfig
) -> str:
    """Hash of everything a ``SimulationReport`` says, ids normalised.

    Connection ids come from a process-wide counter, so per-connection
    rows are keyed by the connection's position in the scenario.
    """
    per_connection = []
    for conn in config.connections:
        stats = report.per_connection.get(conn.connection_id)
        per_connection.append(
            None
            if stats is None
            else [
                stats.released,
                stats.delivered,
                stats.dropped,
                stats.deadline_met,
                stats.deadline_missed,
                sum(stats.latencies_slots),
                max(stats.latencies_slots, default=0),
            ]
        )
    return digest_of(
        {
            "row": {k: repr(v) for k, v in report_row(report).items()},
            "slot_time_s": repr(report.slot_time_s),
            "gap_time_s": repr(report.gap_time_s),
            "busy_slots": report.busy_slots,
            "handover_hops": sorted(report.handover_hops.items()),
            "master_slots": sorted(report.master_slots.items()),
            "per_connection": per_connection,
        }
    )


# ----------------------------------------------------------------------
# The common shape
# ----------------------------------------------------------------------


class Workload:
    """One benchmark workload; see the module docstring."""

    name = ""
    #: One line for ``BENCHMARK.json``: why this workload is here.
    why = ""

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        #: Reference seconds per host second just before the repetition
        #: about to run (set by ``harness.measure``).
        self.host_speed = 1.0
        #: Index of the repetition about to run among its own kind
        #: (plain or traced); workloads whose repetitions differ use it.
        self.variant = 0

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup(self) -> dict[str, Any]:
        """Build, load and warm up; returns facts worth printing."""
        raise NotImplementedError

    def repetition(self, tracer: Tracer | None = None) -> Rep:
        raise NotImplementedError

    def check(
        self, plain: Sequence[Rep], traced: Sequence[Rep], expected: str | None
    ) -> list[str]:
        """Problems with the repetitions' outputs (empty = correct)."""
        return check_digests([*plain, *traced], expected, self.name)

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        """Per-layer numbers of the traced repetitions (plus probes)."""
        raise NotImplementedError


def median_ref(reps: Sequence[Rep], seconds_of: Callable[[Rep], float]) -> float:
    """Median over repetitions of a duration, in reference seconds."""
    return statistics.median(seconds_of(rep) * rep.speed for rep in reps)


def exact(reps: Sequence[Rep], key: str) -> float:
    """A count every traced repetition must agree on (-1 if they do not)."""
    values = {rep.info[key] for rep in reps}
    return values.pop() if len(values) == 1 else -1.0


def in_reference_seconds(body: Callable[[], float]) -> float:
    """``body()``'s host seconds, bracketed into reference seconds."""
    before = reference_kernel()
    seconds = body()
    return seconds * speed_factor(before, reference_kernel())


def stopwatch(body: Callable[[], Any]) -> Callable[[], float]:
    """``body`` as a callable returning the host seconds it took."""

    def seconds() -> float:
        t0 = clock()
        body()
        return clock() - t0

    return seconds


def spanned(tracer: Tracer | None, name: str) -> Any:
    """A span of ``tracer`` around a ``with`` body; nothing when untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def compiled_tier(workload: str, sim: Any) -> dict[str, Any]:
    """The vector tier that ran; fails fast, not silently slower, when it
    is not the compiled one."""
    if sim.vector_backend != "compiled":
        raise RuntimeError(
            f"{workload}: expected the compiled vector tier, got "
            f"backend={sim.vector_backend!r} "
            f"fallback_reason={sim.vector_fallback_reason!r} "
            "(is a C compiler -- cc or gcc -- on PATH?)"
        )
    return {
        "engine": "vector",
        "vector_backend": sim.vector_backend,
        "vector_fallback_reason": sim.vector_fallback_reason,
    }


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


class SimWorkload(Workload):
    """``build_simulation(cfg)`` then ``run()`` in chunks, on one engine."""

    n_nodes = 8
    n_connections = 16
    utilisation = 0.8
    period_range = (10, 100)
    engine = "python"
    #: Slots per ``run()`` call and calls per repetition.
    chunk_slots = 1_000
    chunks = 20
    #: Slots over which the other engine must produce the same report.
    cross_check_slots = 20_000

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.config = ring_scenario(
            seed,
            self.n_nodes,
            self.n_connections,
            self.utilisation,
            self.period_range,
        )
        self.chunk = self.scaled(self.chunk_slots)
        self.options = RunOptions(engine=self.engine)

    def setup(self) -> dict[str, Any]:
        sim = build_simulation(self.config, self.options)
        sim.run(min(self.chunk, 2_000))
        return self.tier(sim)

    def tier(self, sim: Any) -> dict[str, Any]:
        """Which engine tier ran."""
        if self.engine != "vector":
            return {"engine": "python"}
        return compiled_tier(self.name, sim)

    def instrument(self, sim: Any, tracer: Tracer) -> None:
        """Wrap the layer boundaries the oracle's slot loop crosses."""
        for source in sim.sources:
            tracer.instrument(source, "messages_for_slot", "traffic.poll", True)
            tracer.instrument(source, "next_release_slot", "traffic.next_release")
        tracer.instrument(sim.protocol, "plan_slot", "core.protocol.plan_slot")
        tracer.instrument(
            sim.protocol, "execute_plan", "core.protocol.execute_plan"
        )
        tracer.instrument(sim.metrics, "on_slot", "sim.metrics.on_slot")
        sim.step = tracer.wrap_count(sim.step, "sim.engine.step")

    def repetition(
        self, tracer: Tracer | None = None, observer: Any = None
    ) -> Rep:
        options = self.options
        if observer is not None:
            options = options.replace(observer=observer)
        latencies = []
        info: dict[str, Any] = {}
        steps_before = tracer.cell("sim.engine.step")[CALLS] if tracer else 0
        t0 = clock()
        sim = build_simulation(self.config, options)
        if tracer is not None and self.engine == "python":
            self.instrument(sim, tracer)
        for _ in range(self.chunks):
            t = clock()
            with spanned(tracer, "sim.engine.run"):
                report = sim.run(self.chunk)
            latencies.append(clock() - t)
            if self.engine == "vector":
                info.setdefault("backends", []).append(sim.vector_backend)
        wall = clock() - t0
        slots = self.chunks * self.chunk
        failed = 0 if report.slots_simulated == slots else self.chunks
        if tracer is not None:
            info["steps"] = tracer.cell("sim.engine.step")[CALLS] - steps_before
        info.update(self.tier(sim))
        return Rep(
            wall_s=wall,
            slots=slots,
            latencies_s=latencies,
            attempted=self.chunks,
            failed=failed,
            digest=report_digest(report, self.config),
            info=info,
        )

    def other_engine_digest(self, n_slots: int) -> str:
        """The report digest of ``n_slots`` on the engine *not* measured."""
        other = "vector" if self.engine == "python" else "python"
        sim = build_simulation(self.config, RunOptions(engine=other))
        return report_digest(sim.run(n_slots), self.config)

    def check(
        self, plain: Sequence[Rep], traced: Sequence[Rep], expected: str | None
    ) -> list[str]:
        problems = super().check(plain, traced, expected)
        # The two engines are independent implementations of the slot
        # semantics, so each is the other's reference on any seed.
        n_slots = min(self.chunks * self.chunk, self.scaled(self.cross_check_slots))
        sim = build_simulation(self.config, self.options)
        mine = report_digest(sim.run(n_slots), self.config)
        if mine != self.other_engine_digest(n_slots):
            problems.append(
                f"{self.name}: oracle and vector engine disagree over the "
                f"first {n_slots} slots"
            )
        return problems

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        n = len(traced)
        slots = traced[0].slots
        steps = exact(traced, "steps")
        speed = statistics.median(rep.speed for rep in traced)

        def busy(name: str) -> float:
            return tracer.leaf_total(name, BUSY) / n * speed

        polls = tracer.leaf_total("traffic.poll", CALLS)
        return {
            "traffic.poll_calls": polls / n,
            "traffic.poll_s": busy("traffic.poll"),
            "traffic.messages_released": tracer.leaf_total("traffic.poll", ITEMS) / n,
            "traffic.useful_poll_ratio": (
                tracer.leaf_total("traffic.poll", USEFUL) / polls if polls else 0.0
            ),
            "traffic.next_release_calls": tracer.leaf_total(
                "traffic.next_release", CALLS
            ) / n,
            "traffic.next_release_s": busy("traffic.next_release"),
            "core.protocol.plan_slot_calls": tracer.leaf_total(
                "core.protocol.plan_slot", CALLS
            ) / n,
            "core.protocol.plan_slot_s": busy("core.protocol.plan_slot"),
            "core.protocol.execute_plan_s": busy("core.protocol.execute_plan"),
            "sim.metrics.on_slot_s": busy("sim.metrics.on_slot"),
            "sim.engine.steps": steps,
            "sim.engine.fast_forwarded_slots": slots - steps,
            "sim.engine.ff_ratio": (slots - steps) / slots,
            "sim.engine.self_s": tracer.self_seconds("sim.engine.run") / n * speed,
        }


class OracleLoaded(SimWorkload):
    name = "oracle_loaded_n8"
    why = (
        "a busy ring (U=0.8) on the pure-Python oracle behind `repro simulate`: "
        "arbitration-dominated, the stage for plan_slot/execute_plan work"
    )

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        out = super().layer_metrics(tracer, traced, plain)
        out.update(self.events_probe())
        return out

    def events_probe(self, pairs: int = 3) -> dict[str, float]:
        """On-cost of a JSONL event sink: paired plain/with-sink repetitions."""
        shares = []
        written = 0
        path = self.workdir / "events.jsonl"
        for _ in range(pairs):
            plain = in_reference_seconds(lambda: self.repetition().wall_s)
            observer = EventDispatcher()
            log = observer.add_sink(JsonlEventLog(path))

            def with_sink() -> None:
                self.repetition(observer=observer)
                observer.close()

            shares.append(
                in_reference_seconds(stopwatch(with_sink)) / plain - 1.0
            )
            written = log.events_written
        path.unlink(missing_ok=True)
        return {
            "obs.events_overhead_share": statistics.median(shares),
            "obs.events_written": written,
        }


class OracleSparse(SimWorkload):
    name = "oracle_sparse_n16"
    why = (
        "~95 % of slots fast-forwarded, the rest poll all 128 sources: an "
        "aged service ring, where a release calendar must show"
    )
    n_nodes = 16
    n_connections = 128
    utilisation = 0.05
    period_range = (2_000, 20_000)
    chunk_slots = 10_000
    cross_check_slots = 100_000


class VectorLoaded(SimWorkload):
    name = "vector_loaded_n8"
    why = (
        "the oracle_loaded_n8 scenario on the compiled vector tier: bypasses "
        "core.protocol/traffic, so oracle optimisations must not move it"
    )
    engine = "vector"
    chunk_slots = 250_000
    chunks = 8

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        backends = [b for rep in traced for b in rep.info["backends"]]
        out = {
            "sim.vector.compiled": float(all(b == "compiled" for b in backends)),
            "sim.vector.fallback_runs": sum(b is None for b in backends),
        }
        out.update(self.kernel_probe())
        out["sim.vector.numpy_slots_per_s"] = self.numpy_probe()
        return out

    def kernel_probe(self, samples: int = 3) -> dict[str, float]:
        """Entry cost and kernel rate from ``run(2_000)`` vs ``run(1_000_000)``."""
        small, large = self.scaled(2_000), self.scaled(1_000_000)

        def timed_run(n_slots: int) -> float:
            sim = build_simulation(self.config, self.options)
            return in_reference_seconds(stopwatch(lambda: sim.run(n_slots)))

        t_small = statistics.median(timed_run(small) for _ in range(samples))
        t_large = statistics.median(timed_run(large) for _ in range(samples))
        rate = (large - small) / (t_large - t_small)
        return {
            "sim.vector.kernel_slots_per_s": rate,
            "sim.vector.entry_s": t_small - small / rate,
        }

    def numpy_probe(self) -> float:
        """Slots/s of the numpy tier, in a child with ``REPRO_NO_CKERNEL=1``."""
        n_slots = self.scaled(200_000)
        code = (
            "import sys, time\n"
            f"sys.path[:0] = {[str(E2E_DIR), str(SRC_DIR)]!r}\n"
            "import workloads\n"
            f"w = workloads.VectorLoaded({self.seed}, {self.scale}, None)\n"
            "sim = workloads.build_simulation(w.config, w.options)\n"
            "sim.run(2000)\n"
            "t0 = time.perf_counter()\n"
            f"sim.run({n_slots})\n"
            "print(time.perf_counter() - t0, sim.vector_backend)\n"
        )

        def child() -> float:
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, REPRO_NO_CKERNEL="1"),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            seconds, backend = done.stdout.split()
            if backend != "python":
                raise RuntimeError(f"numpy probe ran on backend {backend!r}")
            return float(seconds)

        return n_slots / in_reference_seconds(child)


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------


class CampaignGrid(Workload):
    name = "campaign_grid"
    why = (
        "2 ms runs, so grid expansion, run_key, workload build, kernel entry, "
        "store writes, report assembly and the resume scan dominate"
    )
    n_replications = 12

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.campaign = self.make_campaign(self.scaled(self.n_replications))
        self._stores = 0

    def make_campaign(self, n_replications: int) -> Campaign:
        return Campaign(
            name="e2e-grid",
            base=ScenarioConfig(n_nodes=8),
            n_slots=2_000,
            axes={
                "utilisation": tuple(
                    round(0.15 + 0.05 * i, 2) for i in range(16)
                )
            },
            workload=WorkloadSpec(n_connections=12),
            n_replications=n_replications,
            master_seed=self.seed,
            engine="vector",
        )

    def fresh_store(self) -> ResultStore:
        self._stores += 1
        return ResultStore(self.workdir / f"store-{self._stores}")

    def build_sim(self, spec: Any) -> Any:
        """What the executor builds for one run, through public calls."""
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed_entropy))
        workload = spec.point.workload
        connections = random_workload(
            rng,
            n_nodes=spec.point.config.n_nodes,
            n_connections=workload.n_connections,
            utilisation=workload.utilisation,
            period_range=(workload.period_min, workload.period_max),
            profile=workload.profile,
        )
        config = dataclasses.replace(
            spec.point.config, connections=tuple(connections)
        )
        return build_simulation(config, RunOptions(engine=spec.engine))

    def setup(self) -> dict[str, Any]:
        spec = next(iter(expand_runs(self.campaign)))
        sim = self.build_sim(spec)
        sim.run(spec.point.n_slots)
        tier = compiled_tier(self.name, sim)
        full, self.campaign = self.campaign, self.make_campaign(1)
        try:
            self.repetition()
        finally:
            self.campaign = full
        return tier

    def repetition(self, tracer: Tracer | None = None) -> Rep:
        campaign = self.campaign
        store = self.fresh_store()
        started: list[float] = []
        backends: list[Any] = []

        def run_fn(spec: Any) -> dict[str, Any]:
            started.append(clock())
            return execute_run(spec)

        original_run = VectorSimulation.run
        if tracer is not None:
            # The executor discards each run's simulation, so the tier
            # that ran is only visible from inside VectorSimulation.run.
            def recording_run(sim: Any, n_slots: int) -> Any:
                report = original_run(sim, n_slots)
                backends.append(sim.vector_backend)
                return report

            VectorSimulation.run = recording_run  # type: ignore[method-assign]
            run_fn = tracer.wrap_leaf(  # type: ignore[assignment]
                run_fn, "campaign.executor.execute_run"
            )
            tracer.instrument(store, "save", "campaign.store.save")
        try:
            t0 = clock()
            with spanned(tracer, "campaign.run_cold"):
                cold = run_campaign(campaign, store, n_jobs=1, run_fn=run_fn)
            t1 = clock()
            with spanned(tracer, "campaign.report.from_store"):
                report = CampaignReport.from_store(campaign, store)
            t2 = clock()
            with spanned(tracer, "campaign.executor.resume"):
                resumed = run_campaign(campaign, store, n_jobs=1)
            t3 = clock()
        finally:
            VectorSimulation.run = original_run  # type: ignore[method-assign]
        again = CampaignReport.from_store(campaign, store)
        shutil.rmtree(store.root, ignore_errors=True)
        latencies = [b - a for a, b in zip(started, started[1:] + [t1])]
        total = campaign.total_runs
        failed = cold.quarantined + cold.remaining + cold.failed_attempts
        if (
            cold.executed != total
            or resumed.skipped != total
            or resumed.executed
            or not report.complete
            or again.rows != report.rows
        ):
            failed = total
        return Rep(
            wall_s=t3 - t0,
            slots=total * campaign.n_slots,
            latencies_s=latencies,
            attempted=total,
            failed=failed,
            digest=self.rows_digest(report),
            info={
                "cold_s": t1 - t0,
                "report_s": t2 - t1,
                "resume_s": t3 - t2,
                "backends": backends,
            },
        )

    @staticmethod
    def rows_digest(report: CampaignReport) -> str:
        """Hash of the report rows, minus the code-version-bearing key."""
        return digest_of(
            [
                {k: repr(v) for k, v in row.items() if k != "run_key"}
                for row in report.rows
            ]
        )

    def check(
        self, plain: Sequence[Rep], traced: Sequence[Rep], expected: str | None
    ) -> list[str]:
        problems = super().check(plain, traced, expected)
        # Independent of the executor and the store: rebuild a sample of
        # runs by hand on the *oracle* and compare rows.
        campaign = dataclasses.replace(self.campaign, engine="python")
        store = self.fresh_store()
        run_campaign(self.campaign, store, n_jobs=1)
        specs = list(expand_runs(campaign))
        stride = max(1, len(specs) // 8)
        for spec in specs[::stride]:
            sim = self.build_sim(spec)
            row = report_row(sim.run(spec.point.n_slots))
            stored = store.load(run_key(spec))["row"]
            if any(repr(stored[k]) != repr(v) for k, v in row.items()):
                problems.append(
                    f"{self.name}: stored row of point {spec.point.index} "
                    f"replication {spec.replication} differs from the oracle"
                )
        shutil.rmtree(store.root, ignore_errors=True)
        return problems

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        n = len(traced)
        speed = statistics.median(rep.speed for rep in traced)
        backends = [b for rep in traced for b in rep.info["backends"]]
        execute = tracer.leaf_total("campaign.executor.execute_run", BUSY) / n * speed
        save = tracer.leaf_total("campaign.store.save", BUSY) / n * speed
        cold = median_ref(traced, lambda r: r.info["cold_s"])

        # The same steps the executor takes, driven by hand.
        specs: list[Any] = []
        expand_s = in_reference_seconds(
            stopwatch(lambda: specs.extend(expand_runs(self.campaign)))
        )
        key_s = in_reference_seconds(
            stopwatch(lambda: [run_key(spec) for spec in specs])
        )
        build_s = in_reference_seconds(
            stopwatch(lambda: [self.build_sim(spec) for spec in specs])
        )
        return {
            "sim.vector.compiled": float(
                bool(backends) and all(b == "compiled" for b in backends)
            ),
            "sim.vector.fallback_runs": sum(b is None for b in backends),
            "traffic.workload_build_s": build_s,
            "campaign.grid.expand_s": expand_s,
            "campaign.store.key_s": key_s,
            "campaign.executor.execute_run_s": execute,
            "campaign.store.save_s": save,
            "campaign.executor.overhead_share": (
                1.0 - (expand_s + key_s + execute + save) / cold
            ),
            "campaign.executor.resume_s": median_ref(
                traced, lambda r: r.info["resume_s"]
            ),
            "campaign.report.from_store_s": median_ref(
                traced, lambda r: r.info["report_s"]
            ),
        }


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


class TimedService:
    """The load generator's view of a service: ``submit`` with a stopwatch.

    Sits where a client's call leaves the generator, so the latency it
    records is what the caller waited, queueing included.  ``record``
    keeps the submitted operations in order (the order the single
    worker serves them in) for the synchronous replay probe.
    """

    def __init__(self, service: AdmissionService, record: bool = False):
        self.service = service
        self.latencies_s: list[float] = []
        #: Client-observed latency minus the service's own figure.
        self.reply_delays_s: list[float] = []
        self.refused = 0
        self.errors = 0
        self.operations: list[tuple[str, dict[str, Any]]] | None = (
            [] if record else None
        )

    async def submit(self, op: str, **payload: Any) -> Any:
        return await self.submit_due(clock(), op, **payload)

    async def submit_due(self, due: float, op: str, **payload: Any) -> Any:
        """Submit now, timing from ``due`` (open loop: when it was owed)."""
        if self.operations is not None:
            self.operations.append((op, payload))
        try:
            reply = await self.service.submit(op, **payload)
        except ServiceBackpressure:
            # Refused synchronously, before any await: still the last entry.
            if self.operations is not None:
                self.operations.pop()
            self.refused += 1
            self.latencies_s.append(clock() - due)
            raise
        latency = clock() - due
        self.latencies_s.append(latency)
        self.reply_delays_s.append(latency - reply.latency_s)
        if reply.outcome == "error":
            self.errors += 1
        return reply


def service_digest(service: AdmissionService) -> str:
    """Hash of the service's slot-domain outcome."""
    assert service.sim is not None and service.controller is not None
    return digest_of(
        {
            "requests": sorted(service.request_totals.items()),
            "backpressure": service.backpressure_total,
            "utilisation": repr(service.controller.utilisation),
            "slot": service.sim.current_slot,
        }
    )


def histogram_quantile(histogram: Any, q: float) -> float:
    """Upper edge of the log2 bucket holding the ``q``-quantile."""
    seen = 0
    for bucket, count in sorted(histogram.buckets.items()):
        seen += count
        if seen >= q * histogram.count:
            return float(2**bucket) if bucket else 0.0
    return 0.0


class ServiceWorkload(Workload):
    """A fresh ``AdmissionService`` per repetition, driven from one loop.

    Unlike the simulator workloads, every repetition plays a *different*
    seeded storm (repetition ``i`` of any run with the same ``--seed``
    plays the same one).  How many signalling slots an operation costs
    depends on who happens to be admitted when it arrives, and that
    moves ops/s by 7-9 % from storm to storm -- a property of the storm,
    not of the program.  The run reports the median storm, which is
    steady from seed to seed.
    """

    n_nodes = 8
    queue_depth = 64

    @property
    def storm_seed(self) -> int:
        """Seed of the storm the repetition about to run plays."""
        return (self.seed << 20) + (self.variant << 4)

    def make_service(self, observer: Any = None) -> AdmissionService:
        return AdmissionService(
            ScenarioConfig(n_nodes=self.n_nodes),
            queue_depth=self.queue_depth,
            observer=observer,
        )

    async def drive(self, timed: TimedService) -> dict[str, Any]:
        """Generate this workload's load against a started service."""
        raise NotImplementedError

    def setup(self) -> dict[str, Any]:
        full, self.scale = self.scale, min(self.scale, 0.05)
        try:
            self.repetition()
        finally:
            self.scale = full
        return {"engine": "python"}

    def instrument(self, service: AdmissionService, tracer: Tracer) -> None:
        """Wrap the hosted ring's stepping and every source it polls."""
        sim = service.sim
        assert sim is not None
        sim.step = tracer.wrap_leaf(sim.step, "service.server.step")
        for source in sim.sources:
            tracer.instrument(source, "messages_for_slot", "traffic.poll", True)
        attach = sim.attach_source

        def attach_traced(source: Any) -> Any:
            tracer.instrument(source, "messages_for_slot", "traffic.poll", True)
            return attach(source)

        sim.attach_source = attach_traced

    def repetition(self, tracer: Tracer | None = None) -> Rep:
        return asyncio.run(self._repetition(tracer))

    async def _repetition(self, tracer: Tracer | None) -> Rep:
        observer = events = None
        if tracer is not None:
            events = self.workdir / "service-events.jsonl"
            observer = EventDispatcher()
            observer.add_sink(JsonlEventLog(events))
        service = self.make_service(observer)
        timed = TimedService(service, record=tracer is not None)
        cells = {}
        if tracer is not None:
            cells = {
                name: list(tracer.cell(name))
                for name in ("service.server.step", "traffic.poll")
            }
        t0 = clock()
        await service.start()
        try:
            if tracer is not None:
                self.instrument(service, tracer)
            info = await self.drive(timed)
        finally:
            await service.stop()
        wall = clock() - t0
        assert service.sim is not None and service.controller is not None
        info["final_slot"] = service.sim.current_slot
        info["served"] = sum(service.request_totals.values())
        info["refused"] = service.backpressure_total
        info["service_latencies_s"] = sorted(service.latencies_s)
        info["reply_delays_s"] = timed.reply_delays_s
        info["queue_depth_p99"] = histogram_quantile(
            service.registry.histogram("service:queue_depth"), 0.99
        )
        info["utilisation_ok"] = (
            service.controller.utilisation <= service.controller.u_max
        )
        failed = timed.refused + timed.errors
        attempted = len(timed.latencies_s)
        if (
            info["served"] + info["refused"] != attempted
            or not info["utilisation_ok"]
        ):
            failed = attempted
        if tracer is not None and observer is not None and events is not None:
            observer.close()
            for name, before in cells.items():
                cell = tracer.cell(name)
                info[name] = [a - b for a, b in zip(cell, before)]
            info["operations"] = timed.operations
            info["replay_ok"] = self.replay_matches(service, events)
            events.unlink(missing_ok=True)
            if not info["replay_ok"]:
                failed = attempted
        return Rep(
            wall_s=wall,
            slots=service.sim.current_slot,
            latencies_s=timed.latencies_s,
            attempted=attempted,
            failed=failed,
            digest=service_digest(service),
            info=info,
        )

    @staticmethod
    def replay_matches(service: AdmissionService, events: Path) -> bool:
        """The equality ``repro churn --verify-replay`` asserts."""
        assert service.controller is not None
        summary = summarise_log(events)
        return (
            dict(summary.service_requests) == dict(service.request_totals)
            and summary.service_backpressure == service.backpressure_total
            and summary.service_utilisation == service.controller.utilisation
        )

    def check(
        self, plain: Sequence[Rep], traced: Sequence[Rep], expected: str | None
    ) -> list[str]:
        # Storm 0 is the pinned one, and playing it again must land on
        # the same ring state: the service is slot-deterministic.
        self.variant = 0
        problems = check_digests(
            [plain[0], self.repetition()], expected, f"{self.name} storm 0"
        )
        for i, (a, b) in enumerate(zip(plain, traced)):
            # Same storm with and without the tracer (and its event sink).
            problems += check_digests([a, b], None, f"{self.name} storm {i}")
        if not all(rep.info.get("replay_ok", True) for rep in traced):
            problems.append(
                f"{self.name}: event-log replay differs from live totals"
            )
        return problems

    def sync_replay(
        self, operations: Sequence[tuple[str, dict[str, Any]]]
    ) -> tuple[float, int]:
        """The same operations through the synchronous client, no asyncio.

        Returns (host seconds, final slot): the time is the floor the
        service could reach if the queue, the futures and the event loop
        cost nothing; the final slot must equal the live run's.
        """
        n = self.n_nodes
        injectors = {i: MessageInjector(i) for i in range(n)}
        sim = build_simulation(
            ScenarioConfig(n_nodes=n),
            RunOptions(
                extra_sources=tuple(injectors.values()), with_admission=True
            ),
        )
        controller = sim.admission
        client = ConnectionClient(sim, controller, 0, injectors)
        t0 = clock()
        for op, payload in operations:
            if op == "open":
                client.open_lrtc(payload["connection"])
            elif op == "close":
                client.close_lrtc(payload["connection_id"])
            elif op == "suspend":
                for cid in controller.suspend_node(payload["node"]):
                    sim.detach_connection_source(cid)
            elif op == "resume":
                for decision in controller.resume_node(payload["node"]):
                    if decision.accepted:
                        sim.attach_source(
                            ConnectionSource(
                                decision.connection,
                                active_from=sim.current_slot,
                            )
                        )
        return clock() - t0, sim.current_slot

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        def median_of(fn: Callable[[Rep], float]) -> float:
            return statistics.median(fn(rep) for rep in traced)

        # Counts are those of storm 0, so two runs agree on them exactly;
        # times are medians over the storms played.
        first = traced[0]
        operations = first.info["operations"]
        replay_s = []
        replay_slot = -1
        for _ in range(3):
            before = reference_kernel()
            seconds, replay_slot = self.sync_replay(operations)
            replay_s.append(seconds * speed_factor(before, reference_kernel()))
        step = "service.server.step"
        return {
            "traffic.poll_calls": first.info["traffic.poll"][CALLS],
            "traffic.poll_s": median_of(
                lambda r: r.info["traffic.poll"][BUSY] * r.speed
            ),
            "traffic.messages_released": first.info["traffic.poll"][ITEMS],
            "traffic.useful_poll_ratio": median_of(
                lambda r: r.info["traffic.poll"][USEFUL]
                / max(1, r.info["traffic.poll"][CALLS])
            ),
            "services.api.ops_per_s": len(operations) / statistics.median(replay_s),
            "services.api.slots_per_op": (
                replay_slot / len(operations)
                if replay_slot == first.info["final_slot"]
                else -1.0
            ),
            "service.server.step_calls": first.info[step][CALLS],
            "service.server.step_share": median_of(
                lambda r: r.info[step][BUSY] / r.wall_s
            ),
            "service.server.served": first.info["served"],
            "service.server.refused": first.info["refused"],
            "service.server.queue_depth_p99": median_of(
                lambda r: r.info["queue_depth_p99"]
            ),
            "service.server.reply_delay_p50_ms": median_of(
                lambda r: quantile(r.info["reply_delays_s"], 0.5) * r.speed * 1e3
            ),
            "service.server.latency_p99_ms": statistics.median(
                quantile(r.info["service_latencies_s"], 0.99) * r.speed * 1e3
                for r in plain
            ),
        }


class ServiceClosed(ServiceWorkload):
    name = "service_closed_c4"
    why = (
        "closed loop, 4 churn clients with fault cycles (the `repro churn` "
        "path): >80 % of the time is ring stepping, so throughput is the headline"
    )
    clients = 4
    ops_per_client = 300

    async def drive(self, timed: TimedService) -> dict[str, Any]:
        drivers = [
            ChurnDriver(
                AdmissionClient(timed),  # type: ignore[arg-type]
                seed=self.storm_seed + i,
                n_nodes=self.n_nodes,
                burst=4,
                close_fraction=0.4,
                fault_every=8,
            )
            for i in range(self.clients)
        ]
        await asyncio.gather(
            *(d.run_until_ops(self.scaled(self.ops_per_client)) for d in drivers)
        )
        return {}


class ServiceOpen(ServiceWorkload):
    name = "service_open_r750"
    why = (
        "open loop, a seeded 60/40 open/close mix offered at 750 ops/s and "
        "timed from the due time: service latency without the callers' queue wait"
    )
    rate = 750.0
    n_operations = 400
    #: Planned utilisation ceiling as a share of ``U_max``: every planned
    #: open is admitted, so every planned close finds its connection.
    fill = 0.9

    def planned_operations(self) -> list[tuple[str, dict[str, Any]]]:
        """The seeded operation sequence, decided before any is sent.

        A close names a connection whose open was *issued* earlier; the
        service serves in submission order, so the open is always served
        first, whatever the host's timing -- which makes the ring's
        final state a function of the seed alone.
        """
        rng = random.Random(self.storm_seed)
        n = self.n_nodes
        ceiling = self.fill * make_timing(ScenarioConfig(n_nodes=n)).u_max
        planned_u = 0.0
        pool: list[LogicalRealTimeConnection] = []
        plan: list[tuple[str, dict[str, Any]]] = []
        for _ in range(self.scaled(self.n_operations)):
            source = rng.randrange(n)
            hop = rng.randrange(1, n)
            conn = LogicalRealTimeConnection(
                source=source,
                destinations=frozenset([(source + hop) % n]),
                period_slots=rng.randint(20, 200),
                size_slots=rng.randint(1, 2),
            )
            wants_close = pool and rng.random() < 0.4
            if pool and (wants_close or planned_u + conn.utilisation > ceiling):
                victim = pool.pop(rng.randrange(len(pool)))
                planned_u -= victim.utilisation
                plan.append(("close", {"connection_id": victim.connection_id}))
            else:
                pool.append(conn)
                planned_u += conn.utilisation
                plan.append(("open", {"connection": conn}))
        return plan

    async def drive(self, timed: TimedService) -> dict[str, Any]:
        lateness = []
        tasks = []
        # The rate is per *reference* second: on a host running at 0.8x
        # the operations are spaced 1.25x further apart, so the service
        # is equally busy whatever the host's speed.
        spacing = 1.0 / (self.rate * self.host_speed)
        first = clock() + spacing
        for i, (op, payload) in enumerate(self.plan):
            due = first + i * spacing
            # Spin on sleep(0): a timed sleep goes through the selector,
            # whose timeout is rounded up to 1 ms -- a fake 1 ms floor
            # under every latency.
            while clock() < due:
                await asyncio.sleep(0)
            lateness.append(clock() - due)
            tasks.append(
                asyncio.ensure_future(timed.submit_due(due, op, **payload))
            )
            # Let the request reach the queue and the worker take one
            # before sending the next: after a host stall the generator
            # is behind by the whole stall, and sending that backlog in
            # one breath would overflow the bounded queue -- a burst no
            # set of independent clients would have produced.
            await asyncio.sleep(0)
        results = await asyncio.gather(*tasks, return_exceptions=True)
        unexpected = [
            r
            for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, ServiceBackpressure)
        ]
        if unexpected:
            raise unexpected[0]
        return {"offered": len(self.plan), "lateness_s": lateness}

    def repetition(self, tracer: Tracer | None = None) -> Rep:
        self.plan = self.planned_operations()
        return super().repetition(tracer)

    def check(
        self, plain: Sequence[Rep], traced: Sequence[Rep], expected: str | None
    ) -> list[str]:
        problems = super().check(plain, traced, expected)
        late = statistics.median(
            quantile(rep.info["lateness_s"], 0.99) for rep in plain
        )
        if late > 5e-3:
            problems.append(
                f"{self.name}: generator ran late (p99 {late * 1e3:.2f} ms "
                "> 5 ms), the open-loop schedule was not kept"
            )
        return problems

    def layer_metrics(
        self, tracer: Tracer, traced: Sequence[Rep], plain: Sequence[Rep]
    ) -> dict[str, float]:
        out = super().layer_metrics(tracer, traced, plain)
        out["loadgen.offered_ops"] = plain[0].info["offered"]
        out["loadgen.lateness_p99_ms"] = statistics.median(
            quantile(rep.info["lateness_s"], 0.99) * 1e3 for rep in plain
        )
        out.update(self.admission_probe())
        return out

    def admission_probe(self, calls: int = 2_000) -> dict[str, float]:
        """Cost of one admission test and one utilisation read, standalone,
        on a controller holding 32 admitted connections."""
        controller = AdmissionController(
            make_timing(ScenarioConfig(n_nodes=self.n_nodes))
        )
        for i in range(32):
            controller.request(
                LogicalRealTimeConnection(
                    source=i % self.n_nodes,
                    destinations=frozenset([(i + 1) % self.n_nodes]),
                    period_slots=1_000,
                    size_slots=1,
                )
            )
        probes = [
            LogicalRealTimeConnection(
                source=0,
                destinations=frozenset([1]),
                period_slots=1_000,
                size_slots=1,
            )
            for _ in range(calls)
        ]

        def requests() -> float:
            total = 0.0
            for conn in probes:
                t0 = clock()
                controller.request(conn)
                total += clock() - t0
                controller.remove(conn.connection_id)
            return total

        def reads() -> None:
            for _ in range(calls):
                controller.utilisation

        return {
            "core.admission.request_us": in_reference_seconds(requests)
            / calls
            * 1e6,
            "core.admission.utilisation_read_us": in_reference_seconds(
                stopwatch(reads)
            )
            / calls
            * 1e6,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        OracleLoaded,
        OracleSparse,
        VectorLoaded,
        CampaignGrid,
        ServiceClosed,
        ServiceOpen,
    )
}

#: Every per-layer metric and its unit.  A traced run prints all of
#: them; a layer the workload never enters reads 0.
LAYER_METRICS: dict[str, str] = {
    "traffic.poll_calls": "count",
    "traffic.poll_s": "s",
    "traffic.messages_released": "count",
    "traffic.useful_poll_ratio": "ratio",
    "traffic.next_release_calls": "count",
    "traffic.next_release_s": "s",
    "traffic.workload_build_s": "s",
    "core.protocol.plan_slot_calls": "count",
    "core.protocol.plan_slot_s": "s",
    "core.protocol.execute_plan_s": "s",
    "core.admission.request_us": "us",
    "core.admission.utilisation_read_us": "us",
    "sim.metrics.on_slot_s": "s",
    "sim.engine.steps": "count",
    "sim.engine.fast_forwarded_slots": "count",
    "sim.engine.ff_ratio": "ratio",
    "sim.engine.self_s": "s",
    "sim.vector.compiled": "flag",
    "sim.vector.fallback_runs": "count",
    "sim.vector.entry_s": "s",
    "sim.vector.kernel_slots_per_s": "1/s",
    "sim.vector.numpy_slots_per_s": "1/s",
    "obs.events_overhead_share": "ratio",
    "obs.events_written": "count",
    "services.api.ops_per_s": "1/s",
    "services.api.slots_per_op": "count",
    "service.server.step_calls": "count",
    "service.server.step_share": "ratio",
    "service.server.served": "count",
    "service.server.refused": "count",
    "service.server.queue_depth_p99": "count",
    "service.server.reply_delay_p50_ms": "ms",
    "service.server.latency_p99_ms": "ms",
    "loadgen.offered_ops": "count",
    "loadgen.lateness_p99_ms": "ms",
    "campaign.grid.expand_s": "s",
    "campaign.store.key_s": "s",
    "campaign.executor.execute_run_s": "s",
    "campaign.store.save_s": "s",
    "campaign.executor.overhead_share": "ratio",
    "campaign.executor.resume_s": "s",
    "campaign.report.from_store_s": "s",
    "trace.overhead_share": "ratio",
    "host.speed_factor": "ratio",
}

#: Layer metrics that are counts made by the program's own control
#: flow: two runs of the same code and seed must agree on them exactly.
EXACT_LAYER_METRICS = (
    "traffic.poll_calls",
    "traffic.messages_released",
    "traffic.next_release_calls",
    "core.protocol.plan_slot_calls",
    "sim.engine.steps",
    "sim.engine.fast_forwarded_slots",
    "sim.vector.compiled",
    "sim.vector.fallback_runs",
    "obs.events_written",
    "services.api.slots_per_op",
    "service.server.step_calls",
    "service.server.served",
    "service.server.refused",
    "loadgen.offered_ops",
)
