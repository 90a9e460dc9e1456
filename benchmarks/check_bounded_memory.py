"""Check that a long compiled-tier call runs in bounded memory.

Runs the ``vector_loaded_n8`` benchmark scenario's
``VectorSimulation.run(n)`` for ``n`` = 2 000 000 and 20 000 000, each in
a fresh child process, and reads the child's peak RSS (``ru_maxrss``).
Exit 1 when the longer call's peak exceeds the shorter one's by more
than ``MAX_GROWTH_MB``, or when a call did not run on the compiled
tier; exit 0 otherwise.  Nothing a call keeps may grow
with its length: the kernel compacts a bounded message table in place,
counts latencies in a narrow table, and the report holds latency
histograms, not per-delivery lists.

Usage::

    python benchmarks/check_bounded_memory.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent
PATHS = [str(BENCHMARKS / "e2e"), str(BENCHMARKS.parent / "src")]
SLOTS = (2_000_000, 20_000_000)
# Measured on a 2-vCPU guest: the longer call peaked 0.2-0.4 MB above the
# shorter one (four readings, 47.7 -> 48.0 MB) with latency histograms,
# and 141.9-142.1 MB above it when each delivery's latency was a list
# entry (64.2 -> 206.1 MB).  8 MB is about 20x the measured growth, room
# for allocator noise, and about 18x below the list-backed growth.
MAX_GROWTH_MB = 8

CHILD = """
import json, resource, sys
sys.path[:0] = {paths!r}
import workloads
w = workloads.VectorLoaded(1, 1.0, None)
sim = workloads.build_simulation(w.config, w.options)
sim.run({n_slots})
print(json.dumps({{
    "tier": sim.vector_backend,
    "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""


def peak_of(n_slots: int) -> dict:
    """One child's tier and peak RSS [MB] after ``run(n_slots)``."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(paths=PATHS, n_slots=n_slots)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    peaks = {}
    for n_slots in SLOTS:
        run = peak_of(n_slots)
        print(f"run({n_slots}): tier {run['tier']}, peak {run['peak_mb']:.1f} MB")
        if run["tier"] != "compiled":
            print(f"run({n_slots}) left the compiled tier")
            return 1
        peaks[n_slots] = run["peak_mb"]
    growth = peaks[SLOTS[1]] - peaks[SLOTS[0]]
    verdict = "ok" if growth <= MAX_GROWTH_MB else "OVER BUDGET"
    print(f"peak growth {growth:.1f} MB (budget {MAX_GROWTH_MB} MB): {verdict}")
    return 0 if growth <= MAX_GROWTH_MB else 1


if __name__ == "__main__":
    sys.exit(main())
