"""Multi-seed replication: mean and confidence intervals for metrics.

Single runs of stochastic workloads (Poisson arrivals, random connection
sets) are anecdotes; experiments report replicated means with confidence
intervals.  :func:`replicate` runs one scenario-building function across
independent seeds and aggregates any numeric metrics extracted from the
reports.

The scenario builder receives a :class:`numpy.random.Generator` seeded
from the replication's seed sequence, so replications are independent
*and* the whole batch is reproducible from the master seed.  Each
replication is :func:`run_one`, a pure function of its
:class:`numpy.random.SeedSequence` child; ``n_jobs`` only changes *where*
that function is evaluated, and the finished runs are merged **in seed
order**, so every report, :class:`MetricSummary` value and derived
registry is byte-for-byte the same for any job count.

Two picklability rules follow from using processes when ``n_jobs != 1``:

* ``build`` must be a module-level function or a ``functools.partial``
  of one -- a closure defined inside a test or benchmark body cannot
  cross the process boundary.
* Metric extractors are often lambdas, so they are **not** shipped to
  the workers: workers return the whole pickled
  :class:`~repro.sim.metrics.SimulationReport` and the parent applies
  the extractors locally.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

import numpy as np

from repro.obs.registry import MetricRegistry
from repro.sim.engine import Simulation
from repro.sim.metrics import SimulationReport, registry_of

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@dataclass(frozen=True)
class MetricSummary:
    """Replicated estimates of one scalar metric."""

    name: str
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Sample mean across replications."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1)."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n < 2:
            return 0.0
        return self.std / float(np.sqrt(self.n))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI (default ~95%).

        With the small replication counts typical here the normal
        approximation understates the width slightly; callers needing
        exact small-sample intervals can apply a t-quantile to
        :attr:`sem` themselves.
        """
        half = z * self.sem
        return (self.mean - half, self.mean + half)

    @property
    def min(self) -> float:
        """Smallest replication value."""
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        """Largest replication value."""
        return float(np.max(self.values))


def _rt_miss_ratio(report: SimulationReport) -> float:
    from repro.core.priorities import TrafficClass

    return report.class_stats(TrafficClass.RT_CONNECTION).deadline_miss_ratio


#: Ready-made extractors for the availability section -- pass (a subset
#: of) this mapping as the ``metrics`` argument of :func:`replicate` to
#: replicate fault experiments without hand-writing lambdas.
AVAILABILITY_METRICS: dict[str, "Callable[[SimulationReport], float]"] = {
    "availability": lambda r: r.availability,
    "fault_events": lambda r: float(r.availability_stats.total_fault_events),
    "recoveries": lambda r: float(r.availability_stats.recoveries),
    "slots_lost": lambda r: float(r.availability_stats.slots_lost),
    "recovery_time_s": lambda r: r.availability_stats.recovery_time_s,
    "node_downtime_slots": lambda r: float(
        r.availability_stats.node_downtime_slots
    ),
    "rt_miss_ratio": _rt_miss_ratio,
}


@dataclass(frozen=True)
class BatchResult:
    """All replications of one scenario."""

    reports: tuple[SimulationReport, ...]
    metrics: dict[str, MetricSummary]

    @property
    def registry(self) -> MetricRegistry:
        """The replications' ``sim:*`` registries
        (:func:`~repro.sim.metrics.registry_of`), merged in seed order."""
        merged = MetricRegistry()
        for report in self.reports:
            merged.merge(registry_of(report))
        return merged

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]


def available_cpus() -> int:
    """CPUs this *process* may run on (affinity-aware), at least 1.

    ``os.cpu_count()`` reports the machine, not the process: under CI
    runners, containers and ``taskset`` the scheduling affinity is often
    a small subset, and sizing a pool to the machine oversubscribes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    count_fn = getattr(os, "process_cpu_count", os.cpu_count)
    return count_fn() or 1


def resolve_jobs(n_jobs: int) -> int:
    """Normalise a job count: ``<= 0`` means one per *available* CPU
    (scheduling affinity, not machine size -- see :func:`available_cpus`)."""
    if n_jobs > 0:
        return n_jobs
    return available_cpus()


def ordered_map(
    fn: Callable[[_Item], _Result], items: Sequence[_Item], n_jobs: int
) -> list[_Result]:
    """``[fn(item) for item in items]`` on up to ``n_jobs`` processes.

    The one fan-out path (:func:`replicate`, ``repro compare --jobs``).
    ``n_jobs <= 0`` means one per available CPU, and the pool never
    outgrows ``items``; one job maps in-process, more need a picklable
    ``fn`` (a module-level function or a ``functools.partial`` of one).
    Results come back in input order whichever worker finishes first, so
    the list is the same for every job count.
    """
    jobs = min(resolve_jobs(n_jobs), len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run_one(
    build: Callable[[np.random.Generator], Simulation],
    seed: np.random.SeedSequence,
    n_slots: int,
    engine: str | None = None,
) -> SimulationReport:
    """Worker body: one seeded run, returning its report.

    This is the bit-identical unit both shard-parallel paths share:
    :func:`replicate` below and the campaign executor
    (:mod:`repro.campaign.executor`) call exactly this function, so a
    run's result is a pure function of ``(build, seed, n_slots)`` no
    matter which machinery scheduled it.  The engines being
    bit-identical by contract, ``engine`` changes *how fast* that
    function is evaluated, never its value: when given, it is forwarded
    to ``build`` as an ``engine`` keyword (builders that support
    selection route it into :class:`~repro.sim.runner.RunOptions`).
    """
    rng = np.random.default_rng(seed)
    sim = build(rng) if engine is None else build(rng, engine=engine)
    return sim.run(n_slots)


def replicate(
    build: Callable[[np.random.Generator], Simulation],
    n_slots: int,
    metrics: Mapping[str, Callable[[SimulationReport], float]],
    n_replications: int = 10,
    master_seed: int = 0,
    n_jobs: int = 1,
) -> BatchResult:
    """Run ``build(rng)`` across independent seeds and aggregate.

    Parameters
    ----------
    build:
        Constructs a fresh :class:`Simulation` from a seeded generator
        (workload randomness must come from that generator).  When
        ``n_jobs != 1`` it must also be picklable: a module-level
        function or a ``functools.partial`` of one.
    n_slots:
        Slots per replication.
    metrics:
        Named extractors mapping a finished report to a scalar.
    n_replications:
        Independent replications (>= 1).
    master_seed:
        Seeds the :class:`numpy.random.SeedSequence` that spawns one
        child seed per replication.
    n_jobs:
        Worker processes (``<= 0`` = one per available CPU), capped at
        ``n_replications``.  One job runs in-process; the result is
        bit-identical for every value.
    """
    if n_replications < 1:
        raise ValueError(
            f"need at least one replication, got {n_replications}"
        )
    if n_slots < 0:
        raise ValueError(f"slot count must be non-negative, got {n_slots}")
    if not metrics:
        raise ValueError("no metrics requested")

    children = np.random.SeedSequence(master_seed).spawn(n_replications)
    reports = tuple(
        ordered_map(partial(run_one, build, n_slots=n_slots), children, n_jobs)
    )
    return BatchResult(
        reports=reports,
        metrics={
            name: MetricSummary(
                name=name, values=tuple(float(extract(r)) for r in reports)
            )
            for name, extract in metrics.items()
        },
    )
