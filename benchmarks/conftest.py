"""Shared helpers for the experiment benchmarks.

Each ``bench_*`` module regenerates one experiment from DESIGN.md's
per-experiment index (Tables/Figures/claims of the paper plus the
simulation study its Section 8 promises).  Conventions:

* every benchmark prints the table or series the experiment reports,
  via :func:`print_table`, and asserts the claim it regenerates; CI runs
  them all, under the runtime audit ``tests/conftest.py`` installs, with
  ``PYTHONPATH=src:. python -m pytest -q -p tests.conftest benchmarks/
  --ignore=benchmarks/e2e --benchmark-disable`` (add ``-s`` to print
  the tables);
* headline quantities are attached to ``benchmark.extra_info`` so the
  JSON output of pytest-benchmark carries them;
* simulations run once per benchmark (``benchmark.pedantic`` with a
  single round) -- the interesting output is the measured metric, the
  wall-clock timing is a bonus.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-jobs",
        type=int,
        default=1,
        help="worker processes for replicated benches (0 = one per CPU); "
        "results are bit-identical to --bench-jobs=1",
    )


@pytest.fixture(scope="session")
def bench_jobs(request) -> int:
    """Job count for benches that replicate across seeds."""
    return request.config.getoption("--bench-jobs")


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print one experiment's result table."""
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e-3 or value == 0:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)


@pytest.fixture
def run_once(benchmark):
    """Run a zero-argument callable exactly once under the benchmark."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

    return runner
