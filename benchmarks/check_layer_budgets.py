"""Gate per-layer ratios of the repo benchmark against fixed budgets.

    python3 benchmarks/e2e/run.py --workload W --seconds 5 --trace 1 > run1.txt   # x N
    python benchmarks/check_layer_budgets.py run*.txt --max NAME=VALUE [--max ...]

Each input holds the output of one traced driver run; only its last line
(the result JSON) is read.  A metric's reading is the *lowest* one across
the inputs: the host's speed wanders 1-2x within a run, and one disturbed
run out of N must not fail the gate.  A run that never entered the layer
reports exactly 0 (see benchmarks/e2e/README.md) and is not a reading.
Exit status: 0 within budget, 1 over, 2 if a named metric has no reading
(never skipped).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def budget(text: str) -> tuple[str, float]:
    name, _, limit = text.partition("=")
    return name, float(limit)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument(
        "--max", action="append", required=True, type=budget, metavar="NAME=VALUE",
        help="fail when the best reading of layer metric NAME exceeds VALUE",
    )  # fmt: skip
    args = parser.parse_args(argv)
    results = [
        json.loads(run.read_text().strip().splitlines()[-1])["metrics"]
        for run in args.runs
    ]
    status = 0
    for name, limit in args.max:
        readings = [
            m[name]["value"] for m in results if m.get(name, {}).get("value")
        ]
        if not readings:
            print(f"{name}: no run measured it", file=sys.stderr)
            return 2
        best = min(readings)
        over = best > limit
        seen = " ".join(f"{r:.3f}" for r in readings)
        verdict = "OVER BUDGET" if over else "ok"
        print(f"{name}: best {best:.3f} of [{seen}], max {limit}: {verdict}")
        if over:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
