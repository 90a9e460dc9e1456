"""Campaign execution: sharded, cached, resumable -- and supervised.

:func:`run_campaign` walks the expanded run list, skips every run whose
key is already in the store (re-verifying cached documents, so a corrupt
entry forces a re-run), and executes the rest -- serially or sharded
across a supervised ``ProcessPoolExecutor``.  Each run goes through
:func:`repro.sim.batch.run_one`, the same bit-identical worker unit
``replicate`` uses, so a run's result depends only on its
:class:`~repro.campaign.grid.RunSpec` -- never on scheduling, job
count, retries, or which earlier runs were served from cache.

Every completed run is persisted *as it finishes* (one appended
record), so an interrupt at any point loses at most the in-flight runs;
the next invocation resumes from the store.

Fault tolerance (the supervision layer)
---------------------------------------

Workers are expendable; the supervisor is not.  Modelled on the
master/worker split of ARTIQ's scheduler, the sharded path survives:

* **worker death** -- a worker killed by the OOM-killer (or any hard
  crash) breaks a ``ProcessPoolExecutor`` permanently; the supervisor
  detects ``BrokenProcessPool``, rebuilds the pool, charges each
  in-flight run one (unattributable) crash attempt, and resubmits the
  ones still under budget;
* **hangs** -- with :attr:`~repro.campaign.spec.RetryPolicy.run_timeout_s`
  set, a run that overruns its wall-clock budget has its worker killed,
  is charged a timeout attempt, and the surviving in-flight runs are
  resubmitted to a fresh pool without charge;
* **flaky failures** -- a failed attempt is retried with exponential
  backoff whose jitter derives from the run's own ``SeedSequence``
  (:func:`backoff_delay`), so the retry timeline is as reproducible as
  the run itself;
* **poison runs** -- after ``max_attempts`` failures the run is recorded
  as a structured failure document in the store (exception type,
  message, traceback digest, attempt timeline) and the campaign moves
  on; quarantined runs are surfaced in the summary, the CLI exit code,
  and the event stream, and are re-attempted with a fresh budget on the
  next invocation;
* **interrupts** -- SIGINT/SIGTERM drain gracefully: no new submissions,
  in-flight results are persisted, and the summary comes back
  ``interrupted`` (resumable).  A second signal aborts immediately.

Host-clock reads here time *supervision* (deadlines, backoff) and the
``meta`` side of stored documents -- never anything result-bearing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import signal
import time
import traceback
import types
from collections import deque
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import process as _cf_process
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.campaign.grid import RunSpec, expand_runs
from repro.campaign.spec import Campaign, RetryPolicy
from repro.campaign.store import ResultStore, run_key
from repro.obs.events import (
    EventDispatcher,
    RunQuarantined,
    RunRetryScheduled,
    StoreCorruptionDetected,
    WorkerPoolRebuilt,
)
from repro.obs.registry import MetricRegistry
from repro.report import report_row
from repro.sim.engine import Simulation
from repro.sim.batch import resolve_jobs, run_one
from repro.sim.runner import RunOptions
from repro.traffic.sweeps import random_workload


class WorkerCrashError(RuntimeError):
    """A worker process died (OOM-kill, SIGKILL, hard crash) while runs
    were in flight.  The executor cannot attribute the death to one run,
    so every in-flight run is charged one crash attempt."""


class RunTimeoutError(RuntimeError):
    """A run attempt exceeded its ``RetryPolicy.run_timeout_s`` budget
    and its worker was killed."""


def _now() -> float:
    """Host monotonic clock for supervision deadlines and backoff --
    never a result-bearing value."""
    return time.monotonic()


def _build_run(
    spec: RunSpec,
    rng: np.random.Generator,
    engine: str | None = None,
) -> Simulation:
    """Build the simulation for one run (module-level: crosses the
    process boundary as ``partial(_build_run, spec)`` would -- here we
    ship the spec itself and rebuild in the worker).

    When the run carries a :class:`~repro.campaign.spec.WorkloadSpec`,
    the connection set is drawn from the *same* generator that then
    drives the simulation, so workload and dynamics both derive from the
    run's single seed.
    """
    config = spec.point.config
    workload = spec.point.workload
    if workload is not None:
        connections = random_workload(
            rng,
            n_nodes=config.n_nodes,
            n_connections=workload.n_connections,
            utilisation=workload.utilisation,
            period_range=(workload.period_min, workload.period_max),
            profile=workload.profile,
            tight_fraction=workload.tight_fraction,
            tight_deadline_ratio=workload.tight_deadline_ratio,
        )
        config = dataclasses.replace(config, connections=tuple(connections))
    if engine is None:
        engine = spec.engine
    return Simulation.from_scenario(config, RunOptions(engine=engine))


def execute_run(spec: RunSpec) -> dict[str, Any]:
    """Execute one run and return its JSON-ready stored document.

    The document separates the deterministic report ``row`` (identity
    columns + :data:`repro.report.REPORT_FIELDS`) from host-side
    ``meta`` (elapsed seconds), so reports assembled from cache are
    byte-identical to freshly computed ones.
    """
    # Host wall-time feeds only the ``meta`` side of the document, never
    # the deterministic ``row``.
    t0 = time.perf_counter()
    seed = np.random.SeedSequence(entropy=spec.seed_entropy)

    def build(
        rng: np.random.Generator, engine: str | None = None
    ) -> Simulation:
        return _build_run(spec, rng, engine)

    report = run_one(build, seed, spec.point.n_slots, engine=spec.engine)
    elapsed = time.perf_counter() - t0
    row: dict[str, Any] = {
        "point": spec.point.index,
        "replication": spec.replication,
        "run_key": run_key(spec),
        "seed": list(spec.seed_entropy),
    }
    for axis, value in spec.point.overrides:
        row[_axis_column(axis)] = value
    row.update(report_row(report))
    return {
        "row": row,
        "meta": {"elapsed_host_s": elapsed},
    }


#: Identity columns every campaign report row starts with.
IDENTITY_FIELDS: tuple[str, ...] = ("point", "replication", "run_key", "seed")


def _axis_column(axis: str) -> str:
    """The report column an axis lands in.

    Axis names that collide with an identity column or a report field
    (``utilisation``, ``n_nodes``, ...) are prefixed ``target_`` -- the
    axis records what was *asked for*, the report field what was
    *achieved*.
    """
    from repro.report import REPORT_FIELDS

    if axis in IDENTITY_FIELDS or axis in REPORT_FIELDS:
        return f"target_{axis}"
    return axis


# ----------------------------------------------------------------------
# Retry machinery
# ----------------------------------------------------------------------

#: Entropy stream tag separating retry-jitter draws from the run's own
#: random stream (ASCII "RETR").
_RETRY_STREAM = 0x52455452

#: Longest exception message kept in a failure record.
_MAX_ERROR_CHARS = 500


def backoff_delay(policy: RetryPolicy, spec: RunSpec, attempt: int) -> float:
    """Backoff before the retry that follows failed ``attempt`` (1-based).

    Exponential in the attempt number, capped at ``backoff_max_s``, with
    a jitter fraction drawn from a :class:`numpy.random.SeedSequence`
    derived from the run's entropy and the attempt index -- two hosts
    retrying the same spec back off identically, and the draw follows
    the master seed.
    """
    base = min(
        policy.backoff_max_s, policy.backoff_base_s * (2.0 ** (attempt - 1))
    )
    if base <= 0.0 or policy.jitter <= 0.0:
        return base
    seed = np.random.SeedSequence(
        entropy=(*spec.seed_entropy, _RETRY_STREAM, attempt)
    )
    frac = float(np.random.default_rng(seed).random())
    return base * (1.0 - policy.jitter * frac)


def _failure_record(
    attempt: int, exc: BaseException, kind: str
) -> dict[str, Any]:
    """One attempt's entry in a run's failure timeline."""
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    message = str(exc)
    if len(message) > _MAX_ERROR_CHARS:
        message = message[:_MAX_ERROR_CHARS] + "..."
    return {
        "attempt": attempt,
        "kind": kind,  # "exception" | "timeout" | "worker_crash"
        "error_type": type(exc).__name__,
        "error": message,
        "traceback_sha256": hashlib.sha256(tb.encode()).hexdigest(),
    }


def _quarantine_doc(
    task: "_Task", policy: RetryPolicy
) -> dict[str, Any]:
    """The structured failure document stored for a poisoned run."""
    return {
        "run_key": task.key,
        "point": task.spec.point.index,
        "replication": task.spec.replication,
        "seed": list(task.spec.seed_entropy),
        "max_attempts": policy.max_attempts,
        "attempts": list(task.failures),
    }


class _Task:
    """Mutable per-run bookkeeping inside one invocation."""

    __slots__ = ("key", "spec", "failures", "eligible_at", "deadline")

    def __init__(self, key: str, spec: RunSpec) -> None:
        self.key = key
        self.spec = spec
        #: Failure records of attempts so far (the quarantine timeline).
        self.failures: list[dict[str, Any]] = []
        #: Monotonic time before which the task must not be (re)submitted.
        self.eligible_at: float = 0.0
        #: Monotonic wall-clock deadline of the in-flight attempt.
        self.deadline: float | None = None


class _DrainGuard:
    """Graceful-drain signal handling for one ``run_campaign`` call.

    The first SIGINT/SIGTERM sets :attr:`draining`: the executor stops
    submitting new runs, finishes and persists the in-flight ones, and
    returns a resumable summary.  A second signal raises
    ``KeyboardInterrupt`` for an immediate abort (single-write records
    keep even that resumable).  Outside the main thread -- where signal
    handlers cannot be installed -- the guard degrades to a no-op.
    """

    def __init__(self) -> None:
        self.draining = False
        self._previous: dict[int, Any] = {}

    def _handle(
        self, signum: int, frame: types.FrameType | None
    ) -> None:
        if self.draining:
            raise KeyboardInterrupt
        self.draining = True

    def __enter__(self) -> "_DrainGuard":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc: object) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()


def _drain_sleep(delay: float, drain: _DrainGuard) -> None:
    """Sleep up to ``delay`` seconds, waking early on a drain signal."""
    end = _now() + delay
    while not drain.draining:
        left = end - _now()
        if left <= 0:
            return
        time.sleep(min(left, 0.1))


@dataclass(frozen=True)
class ExecutionSummary:
    """What one ``run_campaign`` invocation did."""

    total: int
    #: Runs executed successfully (and persisted) this invocation.
    executed: int
    #: Runs served from (verified) cache.
    skipped: int
    #: Runs neither cached, executed, nor quarantined -- left undone by
    #: ``limit``, a drain signal, or backoff still pending at drain.
    remaining: int
    #: Failed attempts observed (retries plus quarantine finals).
    failed_attempts: int = 0
    #: Runs that exhausted their attempt budget and were quarantined.
    quarantined: int = 0
    #: Cached documents that failed verification and were re-executed.
    corrupt_replaced: int = 0
    #: Times the worker pool was rebuilt (worker death or timeout kill).
    pool_rebuilds: int = 0
    #: Whether a drain signal (SIGINT/SIGTERM) cut the invocation short.
    interrupted: bool = False
    #: Host-side supervision counters (``campaign:*`` -- see
    #: :data:`repro.obs.registry.CAMPAIGN_COUNTERS`).
    registry: MetricRegistry | None = None

    @property
    def complete(self) -> bool:
        """Whether every run of the campaign is now in the store (no
        pending remainder, nothing quarantined)."""
        return self.remaining == 0 and self.quarantined == 0


class _Supervisor:
    """Shared state of one invocation's execution loop (both paths)."""

    def __init__(
        self,
        store: ResultStore,
        policy: RetryPolicy,
        jobs: int,
        observer: EventDispatcher | None,
        registry: MetricRegistry,
        run_fn: Callable[[RunSpec], dict[str, Any]],
    ) -> None:
        self.store = store
        self.policy = policy
        self.jobs = jobs
        self.observer = observer
        self.registry = registry
        self.run_fn = run_fn
        self.executed = 0
        self.failed_attempts = 0
        self.quarantined = 0
        self.pool_rebuilds = 0
        self.queue: deque[_Task] = deque()
        self.in_flight: dict[Future[dict[str, Any]], _Task] = {}
        self._pool: ProcessPoolExecutor | None = None

    # -- shared event plumbing -----------------------------------------

    def _emit(self, event: Any) -> None:
        if self.observer is not None:
            self.observer.emit(event)

    def _record_success(self, task: _Task, doc: dict[str, Any]) -> None:
        self.store.save(task.key, doc)
        self.executed += 1

    def _attempt_failed(
        self, task: _Task, exc: BaseException, kind: str, requeue: bool = True
    ) -> bool:
        """Charge one failed attempt: schedule a retry with backoff, or
        quarantine once the budget is spent.

        Returns whether a retry was scheduled (``False`` = quarantined).
        With ``requeue`` the retried task re-enters :attr:`queue`; the
        serial path passes ``requeue=False`` and loops in place.
        """
        attempt = len(task.failures) + 1
        record = _failure_record(attempt, exc, kind)
        task.failures.append(record)
        self.failed_attempts += 1
        task.deadline = None
        if attempt >= self.policy.max_attempts:
            self.quarantined += 1
            self.store.save_failure(
                task.key, _quarantine_doc(task, self.policy)
            )
            self.registry.inc("campaign:run_quarantine")
            self._emit(
                RunQuarantined(
                    run_key=task.key,
                    attempts=attempt,
                    error=record["error_type"] + ": " + record["error"],
                )
            )
            return False
        delay = backoff_delay(self.policy, task.spec, attempt)
        record["backoff_s"] = delay
        task.eligible_at = _now() + delay
        if requeue:
            self.queue.append(task)
        self.registry.inc("campaign:run_retry")
        self._emit(
            RunRetryScheduled(
                run_key=task.key,
                attempt=attempt,
                delay_s=delay,
                error=record["error_type"] + ": " + record["error"],
            )
        )
        return True

    # -- serial path ----------------------------------------------------

    def run_serial(
        self, todo: list[tuple[str, RunSpec]], drain: _DrainGuard
    ) -> None:
        """In-process execution with retry + quarantine (no preemption,
        so ``run_timeout_s`` cannot be enforced here)."""
        for key, spec in todo:
            if drain.draining:
                return
            task = _Task(key, spec)
            while True:
                try:
                    doc = self.run_fn(spec)
                except Exception as exc:
                    if not self._attempt_failed(
                        task, exc, "exception", requeue=False
                    ):
                        break  # quarantined
                    _drain_sleep(max(0.0, task.eligible_at - _now()), drain)
                    if drain.draining:
                        return  # run stays pending; resume re-attempts it
                else:
                    self._record_success(task, doc)
                    break

    # -- sharded path ---------------------------------------------------

    def run_sharded(
        self, todo: list[tuple[str, RunSpec]], drain: _DrainGuard
    ) -> None:
        """Supervised ``ProcessPoolExecutor`` execution: retries,
        timeouts with worker kill, pool rebuild on worker death."""
        self.queue = deque(_Task(key, spec) for key, spec in todo)
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            while self.in_flight or (self.queue and not drain.draining):
                self._submit_eligible(drain)
                if not self.in_flight:
                    if drain.draining:
                        return
                    # Everything queued is backing off; doze to the
                    # earliest eligibility (drain-interruptible).
                    delay = max(
                        0.0,
                        min(t.eligible_at for t in self.queue) - _now(),
                    )
                    _drain_sleep(min(delay, 0.5), drain)
                    continue
                done, _ = wait(
                    set(self.in_flight),
                    timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                requeued_before = len(self.queue)
                broken = self._collect(done)
                if broken:
                    self._rebuild_pool(
                        "broken",
                        resubmitted=len(self.queue) - requeued_before,
                    )
                else:
                    self._reap_timeouts()
        finally:
            self._shutdown_pool()

    def _submit_eligible(self, drain: _DrainGuard) -> None:
        """Move eligible queued tasks into flight, up to the job count."""
        if drain.draining or self._pool is None:
            return
        now = _now()
        remaining: deque[_Task] = deque()
        while self.queue:
            task = self.queue.popleft()
            if len(self.in_flight) >= self.jobs or task.eligible_at > now:
                remaining.append(task)
                continue
            future = self._pool.submit(self.run_fn, task.spec)
            if self.policy.run_timeout_s is not None:
                task.deadline = now + self.policy.run_timeout_s
            self.in_flight[future] = task
        self.queue = remaining

    def _wait_timeout(self) -> float:
        """How long to block in ``wait()``: until the nearest deadline or
        backoff expiry, capped so drain signals are noticed promptly."""
        now = _now()
        horizon = 0.5
        for task in self.in_flight.values():
            if task.deadline is not None:
                horizon = min(horizon, task.deadline - now)
        for task in self.queue:
            horizon = min(horizon, task.eligible_at - now)
        return max(0.01, horizon)

    def _collect(self, done: set[Future[dict[str, Any]]]) -> bool:
        """Harvest finished futures.

        Every successful result in the batch is persisted *before* any
        failure is acted on, so one bad run can never discard its
        batch-mates.  Returns whether the pool broke (a worker died).
        """
        failures: list[tuple[_Task, BaseException]] = []
        broken = False
        for future in done:
            task = self.in_flight.pop(future)
            try:
                doc = future.result()
            except _cf_process.BrokenProcessPool:
                broken = True
                failures.append(
                    (
                        task,
                        WorkerCrashError(
                            "worker process died while this run was in "
                            "flight (OOM-kill or hard crash; culprit "
                            "unattributable)"
                        ),
                    )
                )
            except Exception as exc:
                failures.append((task, exc))
            else:
                self._record_success(task, doc)
        if broken:
            # The pool is permanently broken: every other in-flight
            # future is doomed too -- but one that finished *before* the
            # break still holds its result, so harvest before charging.
            for future, task in list(self.in_flight.items()):
                crash_exc: BaseException = WorkerCrashError(
                    "worker pool broke while this run was in flight; "
                    "resubmitted after pool rebuild"
                )
                if future.done():
                    try:
                        doc = future.result()
                    except _cf_process.BrokenProcessPool:
                        failures.append((task, crash_exc))
                    except Exception as exc:
                        failures.append((task, exc))
                    else:
                        self._record_success(task, doc)
                else:
                    failures.append((task, crash_exc))
            self.in_flight.clear()
        for task, exc in failures:
            kind = (
                "worker_crash"
                if isinstance(exc, WorkerCrashError)
                else "exception"
            )
            self._attempt_failed(task, exc, kind)
        return broken

    def _reap_timeouts(self) -> None:
        """Kill the pool if any in-flight run overran its deadline;
        charge the overrunners, resubmit the innocent survivors."""
        if self.policy.run_timeout_s is None or not self.in_flight:
            return
        now = _now()
        expired = [
            (future, task)
            for future, task in self.in_flight.items()
            if task.deadline is not None
            and now >= task.deadline
            and not future.done()
        ]
        if not expired:
            return
        # Persist anything that finished between wait() and now before
        # tearing the pool down.
        finished = {f for f in self.in_flight if f.done()}
        if finished:
            self._collect(finished)
        for future, _task in expired:
            self.in_flight.pop(future, None)
        survivors = list(self.in_flight.values())
        self.in_flight.clear()
        for _future, task in expired:
            self._attempt_failed(
                task,
                RunTimeoutError(
                    f"run exceeded its {self.policy.run_timeout_s} s "
                    "wall-clock budget; worker killed"
                ),
                "timeout",
            )
        # Innocent survivors were aborted through no fault of their own:
        # resubmit without charging an attempt.
        for task in reversed(survivors):
            task.deadline = None
            task.eligible_at = 0.0
            self.queue.appendleft(task)
        self._rebuild_pool("timeout", resubmitted=len(survivors))

    def _rebuild_pool(self, reason: str, resubmitted: int) -> None:
        """Replace the worker pool (after breakage or a timeout kill)."""
        self._shutdown_pool()
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self.pool_rebuilds += 1
        self.registry.inc("campaign:pool_rebuild")
        self._emit(WorkerPoolRebuilt(resubmitted=resubmitted, reason=reason))

    def _shutdown_pool(self) -> None:
        """Kill worker processes (hung ones included) and drop the pool."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        pool.shutdown(wait=False, cancel_futures=True)


def run_campaign(
    campaign: Campaign,
    store: ResultStore,
    n_jobs: int = 1,
    limit: int | None = None,
    observer: EventDispatcher | None = None,
    run_fn: Callable[[RunSpec], dict[str, Any]] = execute_run,
) -> ExecutionSummary:
    """Execute (the uncached remainder of) a campaign into a store.

    Parameters
    ----------
    campaign, store:
        The spec and the result store; the spec snapshot is saved into
        the store so ``status``/``report`` work from the directory
        alone.  ``campaign.retry`` governs attempts, backoff, and the
        per-run timeout.
    n_jobs:
        Worker processes (``<= 0`` = one per available CPU, ``1`` =
        in-process serial).  Worker supervision -- timeout kills and
        pool rebuilds -- needs worker processes, so it applies only when
        ``n_jobs != 1``.
    limit:
        Attempt at most this many *new* runs, then stop -- cached runs
        do not count.  This is the deterministic stand-in for an
        interrupt (CI smoke and the resume tests use it), and a way to
        chip at long campaigns in bounded sessions.  A negative limit
        is a ``ValueError``.
    observer:
        Optional :class:`~repro.obs.events.EventDispatcher` receiving
        the host-side supervision events (``run_retry``,
        ``run_quarantine``, ``pool_rebuild``, ``store_corrupt``).
    run_fn:
        The per-run worker body (module-level picklable callable);
        :func:`execute_run` by default.  The chaos test harness
        substitutes a failure-injecting wrapper here.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    store.save_campaign(campaign)
    registry = MetricRegistry()
    pending: list[tuple[str, RunSpec]] = []
    skipped = 0
    corrupt_replaced = 0
    total = 0
    for spec in expand_runs(campaign):
        total += 1
        key = run_key(spec)
        # One verified read decides cached / missing / corrupt.
        if store.is_valid(key):
            skipped += 1
            continue
        if key in store:
            # Damaged record: schedule a re-run whose appended record
            # supersedes it, instead of letting it poison the report.
            corrupt_replaced += 1
            registry.inc("campaign:store_corrupt")
            if observer is not None:
                observer.emit(
                    StoreCorruptionDetected(
                        path=str(store.segment_path), run_key=key
                    )
                )
        pending.append((key, spec))

    todo = pending if limit is None else pending[:limit]
    jobs = min(resolve_jobs(n_jobs), max(len(todo), 1))

    supervisor = _Supervisor(
        store=store,
        policy=campaign.retry,
        jobs=jobs,
        observer=observer,
        registry=registry,
        run_fn=run_fn,
    )
    with _DrainGuard() as drain:
        if jobs <= 1:
            supervisor.run_serial(todo, drain)
        else:
            supervisor.run_sharded(todo, drain)

    return ExecutionSummary(
        total=total,
        executed=supervisor.executed,
        skipped=skipped,
        remaining=(
            total - skipped - supervisor.executed - supervisor.quarantined
        ),
        failed_attempts=supervisor.failed_attempts,
        quarantined=supervisor.quarantined,
        corrupt_replaced=corrupt_replaced,
        pool_rebuilds=supervisor.pool_rebuilds,
        interrupted=drain.draining,
        registry=registry,
    )
