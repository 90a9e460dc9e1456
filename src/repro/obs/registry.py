"""A unified counter/histogram registry for run observability.

One :class:`MetricRegistry` collects named monotonic counters and scalar
histograms -- :class:`~repro.sim.profiling.PhaseProfiler` stores its
phase timers here, the live service and the campaign executor count
into one, and :func:`repro.sim.metrics.registry_of` derives a run's
``sim:*`` registry from its finished report.  Registries are plain
picklable values with a deterministic, order-independent
:meth:`~MetricRegistry.merge`, so replicated runs fold together in seed
order exactly as their metric values do
(:attr:`repro.sim.batch.BatchResult.registry`).
"""

from __future__ import annotations

import math
from collections import Counter

#: Host-side campaign-execution counters and the event kind each one
#: mirrors (see :mod:`repro.obs.events`).  Every counter name embeds its
#: event kind as a ``:``-separated segment, which is exactly what the
#: ``event-metric-parity`` lint rule requires: each of these totals can
#: be reconstructed by counting the matching events in a campaign-level
#: log, so the two views never drift.  The supervising executor
#: (:mod:`repro.campaign.executor`) increments them into the
#: :class:`MetricRegistry` it returns on its ``ExecutionSummary``.
CAMPAIGN_COUNTERS: dict[str, str] = {
    "campaign:run_retry": "run_retry",
    "campaign:run_quarantine": "run_quarantine",
    "campaign:pool_rebuild": "pool_rebuild",
    "campaign:store_corrupt": "store_corrupt",
}

#: Live admission-service counters and the event kind each one mirrors,
#: following the same naming contract as :data:`CAMPAIGN_COUNTERS` (the
#: event kind is a ``:``-separated segment, so ``event-metric-parity``
#: can tie every total back to its events).  The service
#: (:mod:`repro.service.server`) increments ``service:service_request``
#: once per served request and ``service:service_backpressure`` once per
#: queue-full refusal, and observes per-request latency into the
#: ``service:latency_s`` histogram -- replaying the event log must
#: reproduce both counters exactly.
SERVICE_COUNTERS: dict[str, str] = {
    "service:service_request": "service_request",
    "service:service_backpressure": "service_backpressure",
}


class Histogram:
    """Streaming summary of one scalar series.

    Tracks count, sum, min and max exactly, plus a coarse log2-bucketed
    distribution (bucket ``b`` holds observations in ``[2**(b-1), 2**b)``;
    non-positive values land in bucket 0).  All fields merge by addition
    (min/max by min/max), so merging is associative and order-free.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Counter = Counter()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[self._bucket(value)] += 1

    @staticmethod
    def _bucket(value: float) -> int:
        if value <= 0:
            return 0
        return max(0, math.frexp(value)[1])

    @property
    def mean(self) -> float:
        """Mean of the observations (NaN before any)."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.buckets.update(other.buckets)

    def as_dict(self) -> dict:
        """JSON-ready summary (finite fields only when populated)."""
        out: dict = {"count": self.count, "total": self.total}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.mean
            out["buckets"] = {
                str(b): n for b, n in sorted(self.buckets.items())
            }
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, total={self.total!r}, "
            f"min={self.min!r}, max={self.max!r})"
        )


class MetricRegistry:
    """Named counters and histograms with deterministic merging."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        #: Monotonic named counters.
        self.counters: Counter = Counter()
        #: Named scalar histograms.
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, k: int = 1) -> None:
        """Add ``k`` to counter ``name`` (created at zero on first use)."""
        self.counters[name] += k

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created empty)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry in (addition; associative, order-free for
        counts and sums -- float sums are reproducible for a fixed merge
        order, which callers keep in seed order)."""
        self.counters.update(other.counters)
        for name, hist in other.histograms.items():
            self.histogram(name).merge(hist)

    def as_dict(self) -> dict:
        """JSON-ready snapshot, keys sorted for stable artifacts."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    def __getstate__(self):
        return (self.counters, self.histograms)

    def __setstate__(self, state):
        self.counters, self.histograms = state

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricRegistry):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:
        return (
            f"MetricRegistry({len(self.counters)} counters, "
            f"{len(self.histograms)} histograms)"
        )
