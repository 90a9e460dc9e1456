"""Tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e/tests`` (not part of the
tier-1 ``testpaths``).  They check the harness, not the program: a
smoke of every workload at 2 % size, the emitted JSON against
``BENCHMARK.json``, the open-loop due-time accounting on a stub service
with an injected stall, and the span self-time arithmetic.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

E2E_DIR = Path(__file__).resolve().parents[1]
ROOT = E2E_DIR.parents[1]
for _path in (str(ROOT / "src"), str(E2E_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declaration_matches_the_code():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for declared in DECLARED["workloads"]:
        assert declared["why"] == workloads.WORKLOADS[declared["name"]].why
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert end_to_end == harness.END_TO_END_UNITS
    assert per_layer == workloads.LAYER_METRICS
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert all(NAME.match(n) for n in [*end_to_end, *per_layer])
    assert set(workloads.EXACT_LAYER_METRICS) <= set(per_layer)
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_at_two_percent(name, trace):
    done = subprocess.run(
        [
            sys.executable, str(E2E_DIR / "run.py"),
            "--workload", name, "--seed", "3", "--seconds", "0.2",
            "--scale", "0.02", "--trace", str(trace),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_is_an_error(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in E2E_DIR.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "oracle_loaded_n8", "--seconds", "0.1"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "program under test is missing" in done.stderr
    assert not done.stdout.strip()


class StallingService:
    """Stub service: every request costs ``service_s`` of blocked loop;
    request number ``stall_at`` blocks it for ``stall_s`` instead -- what
    one slow synchronous ``_serve`` does to an asyncio service."""

    def __init__(self, service_s, stall_at, stall_s):
        self.service_s, self.stall_at, self.stall_s = service_s, stall_at, stall_s
        self.served = 0
        self.sent_at = []

    async def submit(self, op, **payload):
        self.sent_at.append(time.perf_counter())
        t0 = time.perf_counter()
        cost = self.stall_s if self.served == self.stall_at else self.service_s
        self.served += 1
        await asyncio.sleep(0)
        time.sleep(cost)  # the worker is synchronous: nobody else runs
        return SimpleNamespace(
            outcome="accepted", latency_s=time.perf_counter() - t0
        )


def test_open_loop_times_from_the_due_time():
    rate, stall_at, stall_s = 1000.0, 20, 0.030
    loadgen = workloads.ServiceOpen(seed=1, scale=0.1, workdir=None)
    loadgen.rate = rate
    loadgen.plan = [("open", {})] * 60
    stub = StallingService(service_s=0.0001, stall_at=stall_at, stall_s=stall_s)
    timed = workloads.TimedService(stub)
    info = asyncio.run(loadgen.drive(timed))

    assert info["offered"] == 60 and len(timed.latencies_s) == 60
    # The generator could not run while the loop was blocked, so the
    # operations due during the stall went out late ...
    assert max(info["lateness_s"]) > 0.8 * stall_s
    assert max(info["lateness_s"][:stall_at]) < 0.005
    # ... and their latency counts the wait from when they were *due*:
    # the operation due 1 ms into a 30 ms stall waited ~29 ms, although
    # it was served within a fraction of a millisecond of being sent.
    after = stall_at + 1
    assert timed.latencies_s[after] > 0.8 * (stall_s - 1.0 / rate)
    sent_to_reply = timed.latencies_s[after] - info["lateness_s"][after]
    assert sent_to_reply < 0.3 * stall_s
    # Before the stall nothing waited.
    assert max(timed.latencies_s[:stall_at]) < 0.005


def test_span_self_time_arithmetic():
    #   root 0..10
    #     a 1..4          (child of root)
    #       a1 2..3       (child of a)
    #     b 3..6          (child of root, overlaps a on 3..4)
    #     c 9..12         (child of root, clipped to root's end at 10)
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
        ["open", 5.0, None, 0, 0],
    ]
    leaves = {1: {"poll": [7, 0.5, 1, 1]}}
    self_s = tracing.self_times(spans, leaves)
    # root: 10 - (a|b = 1..6 -> 5) - (c clipped 9..10 -> 1) = 4
    assert self_s[0] == pytest.approx(4.0)
    # a: 3 - a1 (1) - leaf busy (0.5) = 1.5
    assert self_s[1] == pytest.approx(1.5)
    assert self_s[2] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(3.0)
    assert self_s[5] == 0.0  # unfinished


def test_tracer_attributes_leaves_to_the_innermost_span():
    now = [0.0]

    def clock():
        return now[0]

    def work(seconds):
        now[0] += seconds
        return [1] if seconds > 1 else []

    tracer = tracing.Tracer(clock)
    poll = tracer.wrap_leaf(work, "poll", sized=True)
    with tracer.span("outer") as outer:
        poll(1.0)
        with tracer.span("inner") as inner:
            poll(2.0)
            poll(0.5)
        poll(0.25)
    assert tracer.span_leaves[outer]["poll"] == [2, 1.25, 0, 0]
    assert tracer.span_leaves[inner]["poll"] == [2, 2.5, 1, 1]
    assert tracer.leaf_total("poll", tracing.CALLS) == 4
    assert tracer.self_seconds("outer") == pytest.approx(0.0)
    assert tracer.self_seconds("inner") == pytest.approx(0.0)


def test_quantile_and_reference_seconds():
    assert harness.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert harness.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    # A host running the kernel 25 % slow turns 1.25 host seconds into 1.
    slow = 1.25 * harness.REFERENCE_KERNEL_S
    assert 1.25 * harness.speed_factor(slow, slow) == pytest.approx(1.0)


def test_digest_check_reports_disagreement_and_pin():
    def rep(digest):
        return harness.Rep(1.0, 1, [1.0], 1, 0, digest)

    assert harness.check_digests([rep("a"), rep("a")], "a", "w") == []
    assert harness.check_digests([rep("a"), rep("a")], None, "w") == []
    assert "disagree" in harness.check_digests([rep("a"), rep("b")], "a", "w")[0]
    assert "pinned" in harness.check_digests([rep("a"), rep("a")], "b", "w")[0]
