"""Per-phase timing of the simulator's slot loop.

A :class:`PhaseProfiler` accumulates wall-clock seconds and call counts
for each named phase of the engine's hot loop (traffic release, plan
execution, arbitration, metrics), plus free-form event counters:
``fast_forwarded_slots``, and from the oracle's release calendar
``source_polls`` (``messages_for_slot`` calls) and ``calendar_due`` (how
many of the polled sources the calendar named, the rest being the
always-poll list).  The ``release`` lap count is the number of executed
slots, so polls per slot can be read off the table.  The vector engine
keeps the tier an unprofiled run would use: one ``ingest`` / ``kernel`` /
``fold`` lap each per ``run()`` call on the compiled tier, plus the
``compiled_windows`` counter (the kernel's in-place compactions of its
message table, plus one per call), and one ``kernel`` lap per ``run()``
call on the numpy tier.  The engine only
touches the profiler when one is attached, so profiling costs nothing
when off; when on, the overhead is one ``perf_counter()`` call per phase
boundary.

The accumulators live in a :class:`~repro.obs.registry.MetricRegistry`:
each phase is a histogram named ``phase:<name>`` (count = laps, total =
seconds) and the free-form counters are registry counters.  That makes
profiles mergeable across parallel replications with the same
deterministic seed-order merge as every other observability value, and
lets run manifests embed the profile as plain registry data.

Usage from the CLI: ``repro simulate ... --profile`` prints the phase
table after the run.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.obs.registry import MetricRegistry

#: Registry-name prefix of the per-phase timers.
PHASE_PREFIX = "phase:"


class PhaseProfiler:
    """Cumulative per-phase timers plus event counters.

    The engine drives the timers with the lap pattern::

        t = profiler.clock()
        ...phase A...
        t = profiler.lap("a", t)   # accounts A, restarts the clock
        ...phase B...
        t = profiler.lap("b", t)
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        #: Backing store; share one registry across components to get a
        #: single merged observability snapshot.
        self.registry = registry if registry is not None else MetricRegistry()

    @staticmethod
    def clock() -> float:
        """A monotonic timestamp; pass it to the next :meth:`lap`."""
        return time.perf_counter()

    def lap(self, phase: str, since: float) -> float:
        """Account the time elapsed since ``since`` to ``phase``.

        Returns the current timestamp, to be fed to the next lap.
        """
        now = time.perf_counter()
        self.registry.observe(PHASE_PREFIX + phase, now - since)
        return now

    def count(self, name: str, k: int = 1) -> None:
        """Add ``k`` to the free-form counter ``name``."""
        self.registry.inc(name, k)

    # ------------------------------------------------------------------

    @property
    def seconds(self) -> dict[str, float]:
        """Cumulative wall-clock seconds per phase."""
        return {
            name[len(PHASE_PREFIX):]: hist.total
            for name, hist in self.registry.histograms.items()
            if name.startswith(PHASE_PREFIX)
        }

    @property
    def calls(self) -> Counter:
        """Number of laps recorded per phase."""
        return Counter(
            {
                name[len(PHASE_PREFIX):]: hist.count
                for name, hist in self.registry.histograms.items()
                if name.startswith(PHASE_PREFIX)
            }
        )

    @property
    def counters(self) -> Counter:
        """Free-form event counters (e.g. ``fast_forwarded_slots``)."""
        return self.registry.counters

    @property
    def total_seconds(self) -> float:
        """Sum of all phase timers."""
        return sum(self.seconds.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Phase table as plain data: seconds, calls, share of total."""
        seconds = self.seconds
        calls = self.calls
        total = sum(seconds.values())
        return {
            phase: {
                "seconds": secs,
                "calls": float(calls[phase]),
                "share": (secs / total) if total > 0 else 0.0,
            }
            for phase, secs in sorted(seconds.items(), key=lambda kv: -kv[1])
        }

    def format_table(self) -> str:
        """Human-readable phase table (plus any event counters)."""
        lines = [f"{'phase':<16} {'seconds':>10} {'calls':>10} {'share':>7}"]
        for phase, row in self.summary().items():
            lines.append(
                f"{phase:<16} {row['seconds']:>10.4f} "
                f"{int(row['calls']):>10d} {row['share']:>6.1%}"
            )
        lines.append(f"{'total':<16} {self.total_seconds:>10.4f}")
        for name, value in sorted(self.counters.items()):
            lines.append(f"{name:<16} {value:>10d}")
        return "\n".join(lines)
