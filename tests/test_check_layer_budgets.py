"""``benchmarks/check_layer_budgets.py`` on canned driver output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKER = Path(__file__).resolve().parents[1] / "benchmarks" / "check_layer_budgets.py"
EVENTS = "obs.events_overhead_share"
CAMPAIGN = "campaign.executor.overhead_share"


@pytest.fixture
def driver_run(tmp_path):
    """Write one traced driver run's stdout; returns its path."""

    def write(name, metrics):
        result = {
            "correct": True,
            "attempted": 1,
            "failed": 0,
            "metrics": {
                k: {"value": v, "unit": "ratio"} for k, v in metrics.items()
            },
        }
        lines = [f"w {k} 9.99 ratio (n=3)" for k in metrics]
        path = tmp_path / name
        path.write_text("\n".join([*lines, json.dumps(result)]) + "\n")
        return path

    return write


def check(*argv):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, argv)],
        capture_output=True,
        text=True,
    )


def test_within_budget_reads_only_the_last_line(driver_run):
    # The metric lines above the JSON say 9.99; only the JSON counts.
    run = driver_run("a.txt", {EVENTS: 0.2})
    done = check(run, "--max", f"{EVENTS}=0.25")
    assert done.returncode == 0, done.stderr
    assert "best 0.200" in done.stdout


def test_over_budget_exits_1(driver_run):
    run = driver_run("a.txt", {EVENTS: 0.3})
    assert check(run, "--max", f"{EVENTS}=0.25").returncode == 1


def test_best_reading_across_runs_is_gated(driver_run):
    runs = [
        driver_run(f"{i}.txt", {EVENTS: v})
        for i, v in enumerate((0.6, 0.19, 0.3))
    ]
    assert check(*runs, "--max", f"{EVENTS}=0.25").returncode == 0
    assert check(*runs, "--max", f"{EVENTS}=0.15").returncode == 1


def test_missing_metric_exits_2(driver_run):
    run = driver_run("a.txt", {EVENTS: 0.2})
    done = check(run, "--max", f"{EVENTS}=0.25", "--max", f"{CAMPAIGN}=0.1")
    assert done.returncode == 2
    assert CAMPAIGN in done.stderr


def test_zero_filled_layer_is_not_a_reading(driver_run):
    # run.py prints 0 for a layer the workload never enters: the other
    # workload's zero must neither satisfy a budget nor hide an absence.
    loaded = driver_run("loaded.txt", {EVENTS: 0.3, CAMPAIGN: 0.0})
    grid = driver_run("grid.txt", {EVENTS: 0.0, CAMPAIGN: -0.02})
    budgets = ("--max", f"{EVENTS}=0.25", "--max", f"{CAMPAIGN}=0.1")
    assert check(loaded, grid, *budgets).returncode == 1
    assert check(loaded, "--max", f"{CAMPAIGN}=0.1").returncode == 2
