"""Measurement core shared by every workload.

One *run* of the benchmark measures one workload for a fixed number of
seconds as a sequence of **repetitions**: each repetition builds fresh
state from the same seeded inputs and does the same, fixed amount of
work, so every repetition of a run produces the same simulated result
(its ``digest``) and differs only in how long the host took.  A metric
is the median over the repetitions.

Host-speed reference
--------------------

The box the baseline was taken on (a 2-vCPU Firecracker guest) does not
run at one speed: the same pure-Python loop takes anything from 1.0x to
2x its quiet time, shifting over tens of seconds, whatever the benchmark
does (pinning, a busy or idle sibling CPU and ``gc`` make no difference;
neighbours on the physical core are the likely cause).  Ten-second
medians of *any* workload therefore spread by 7-19 % (quartile distance
over median), as wide as the bounds the metrics are meant to gate.

So every repetition is bracketed by :func:`reference_kernel`, a small
fixed loop of this file's own (heap pushes and pops of small objects --
the same kind of work the simulator does, and no code of the program),
and every duration is reported in **reference seconds**: host seconds
times ``REFERENCE_KERNEL_S / measured kernel time``, i.e. what the
duration would have been had the host run the kernel at its quiet-mode
speed.  On a 600 s sample of alternating kernel and workload units this
brought the ten-second spread of the oracle, vector and service units
from 6-7 % down to 1.5-2 % (``campaign_grid`` gains least: its store
traffic does not slow down with the CPU).  The applied factor is reported
(``host.speed_factor``, per-layer) so a raw host time can be recovered
from any reported number.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

#: Quiet-speed time of :func:`reference_kernel` on the baseline host
#: (README.md, "Host"): its 5th percentile over seven minutes of runs
#: interleaved with the workloads.  Only the ratio to the measured time
#: is used, so on another host every duration scales by one constant.
REFERENCE_KERNEL_S = 3.0e-3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _kernel_once() -> float:
    t0 = time.perf_counter()
    heap: list[tuple[int, int, _Cell]] = []
    for i in range(5000):
        cell = _Cell(i * 7 % 13, i)
        heapq.heappush(heap, (cell.key, i, cell))
    total = 0
    while heap:
        total += heapq.heappop(heap)[2].value
    if total != 12497500:
        raise AssertionError("reference kernel computed a wrong sum")
    return time.perf_counter() - t0


def reference_kernel(samples: int = 3) -> float:
    """Host seconds of the fixed reference loop: the median of a few runs.

    The collector is paused meanwhile: a generation-2 pass landing in
    the loop costs in proportion to the *workload's* live heap, which
    would make the yardstick depend on what it measures.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel_once() for _ in range(samples))
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(kernel_before_s: float, kernel_after_s: float) -> float:
    """Reference seconds per host second between two kernel runs."""
    return REFERENCE_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2.0)


@dataclass
class Rep:
    """What one repetition measured."""

    #: Host seconds of the timed region.
    wall_s: float
    #: Simulated ring slots advanced in the timed region.
    slots: int
    #: Host seconds of each operation (``run()`` call, campaign run,
    #: service request) completed in the timed region.
    latencies_s: list[float]
    attempted: int
    failed: int
    #: Hash of the repetition's simulated outputs (host-time free).
    digest: str
    #: Workload-specific extras (tier that ran, phase times, ...).
    info: dict[str, Any] = field(default_factory=dict)
    #: Reference seconds per host second while it ran.
    speed: float = 1.0

    @property
    def ops(self) -> int:
        return len(self.latencies_s)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty series."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty series")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(
    workload: Any,
    seconds: float,
    tracer: Any = None,
) -> tuple[list[Rep], list[Rep]]:
    """Repeat ``workload.repetition`` until ``seconds`` have passed.

    Returns ``(plain, traced)`` repetitions.  With a tracer, plain and
    traced repetitions alternate, so both see the same host weather and
    their ratio is the tracing overhead.  Each repetition is bracketed
    by the reference kernel; the kernel run after one repetition is the
    one before the next.
    """
    plain: list[Rep] = []
    traced: list[Rep] = []
    end = time.perf_counter() + seconds
    before = reference_kernel()
    while True:
        for tr in (None, tracer) if tracer is not None else (None,):
            workload.host_speed = REFERENCE_KERNEL_S / before
            workload.variant = len(plain if tr is None else traced)
            if tr is None:
                rep = workload.repetition()
            else:
                tr.rep = len(traced)
                with tr.span(workload.name):
                    rep = workload.repetition(tr)
            after = reference_kernel()
            rep.speed = speed_factor(before, after)
            before = after
            (plain if tr is None else traced).append(rep)
        if time.perf_counter() >= end:
            return plain, traced


#: Every end-to-end metric and its unit (times are reference seconds).
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end_metrics(reps: Sequence[Rep], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, in reference seconds.

    Throughputs and latency quantiles are taken per repetition (so a
    quantile is over the operations of one repetition -- the same
    operations in every repetition) and the median repetition is
    reported.
    """
    def per_rep(fn: Callable[[Rep], float]) -> float:
        return statistics.median(fn(rep) for rep in reps)

    return {
        "setup_s": setup_s,
        "slots_per_s": per_rep(lambda r: r.slots / (r.wall_s * r.speed)),
        "ops_per_s": per_rep(lambda r: r.ops / (r.wall_s * r.speed)),
        "latency_p50_ms": per_rep(
            lambda r: quantile(r.latencies_s, 0.50) * r.speed * 1e3
        ),
        "latency_p90_ms": per_rep(
            lambda r: quantile(r.latencies_s, 0.90) * r.speed * 1e3
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_of(doc: Any) -> str:
    """SHA-256 over the canonical JSON of a host-time-free document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digests(
    reps: Sequence[Rep], expected: str | None, what: str
) -> list[str]:
    """Problems with the repetitions' digests (empty = all good).

    Every repetition ran the same inputs, so all digests must agree;
    ``expected`` is the pinned value, when this seed and scale have one.
    """
    problems = []
    digests = sorted({rep.digest for rep in reps})
    if len(digests) != 1:
        problems.append(f"{what}: repetitions disagree: {digests}")
    elif expected is not None and digests[0] != expected:
        problems.append(
            f"{what}: digest {digests[0]} differs from the pinned {expected}"
        )
    return problems
