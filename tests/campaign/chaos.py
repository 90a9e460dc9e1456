"""Chaos-injection harness for the campaign execution layer.

The harness wraps :func:`repro.campaign.executor.execute_run` with a
failure injector driven by an on-disk *chaos plan*, so injected faults
cross the process boundary into pool workers and stay deterministic
across retries and pool rebuilds:

* the plan is a JSON file (``plan.json``) in a chaos directory named by
  the ``REPRO_CHAOS_DIR`` environment variable, mapping a run id
  (``"<point>:<replication>"``) to a behaviour;
* each invocation of a planned run claims a 0-based attempt number by
  atomically creating a counter file (``open(..., "x")``), so "fail the
  first two attempts" means exactly that even when the attempts happen
  in different worker processes;
* behaviours: ``fail`` (raise), ``kill`` (SIGKILL own process -- breaks
  the pool), ``hang`` (sleep past any sane timeout).  ``times`` bounds
  how many attempts misbehave (omit for "always", the deterministic
  poison-run case).

Example plan::

    {"0:0": {"mode": "fail", "times": 2},        # flaky: fails twice
     "1:0": {"mode": "fail"},                    # poison: always fails
     "2:1": {"mode": "kill", "times": 1},        # kills its worker once
     "3:0": {"mode": "hang", "times": 1, "hang_s": 30.0}}

Used by ``tests/campaign/test_chaos.py`` and the CI ``chaos-smoke``
job.  Everything here is host-side test machinery: it runs *around* the
simulation, never inside it.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from typing import Any

from repro.campaign.executor import execute_run
from repro.campaign.grid import RunSpec

#: Environment variable carrying the chaos directory into workers.
ENV_DIR = "REPRO_CHAOS_DIR"


class ChaosFailure(RuntimeError):
    """The injected exception for ``fail``-mode attempts."""


def run_id(spec: RunSpec) -> str:
    """The plan key of one run: ``"<point>:<replication>"``."""
    return f"{spec.point.index}:{spec.replication}"


def write_plan(chaos_dir: str | Path, plan: dict[str, dict[str, Any]]) -> Path:
    """Materialise a chaos plan (and its attempt-counter area) on disk."""
    root = Path(chaos_dir)
    (root / "attempts").mkdir(parents=True, exist_ok=True)
    path = root / "plan.json"
    path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")
    return path


def claim_attempt(chaos_dir: Path, ident: str) -> int:
    """Atomically claim this invocation's 0-based attempt number.

    Creating ``attempts/<ident>/<n>`` with ``open(..., "x")`` is atomic
    on POSIX, so concurrent workers (and resubmissions after a pool
    rebuild) each get a distinct number in arrival order.
    """
    counter_dir = chaos_dir / "attempts" / ident.replace(":", "_")
    counter_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        try:
            (counter_dir / str(n)).touch(exist_ok=False)
            return n
        except FileExistsError:
            n += 1


def attempts_made(chaos_dir: str | Path, ident: str) -> int:
    """How many attempts of a planned run have started so far."""
    counter_dir = Path(chaos_dir) / "attempts" / ident.replace(":", "_")
    if not counter_dir.is_dir():
        return 0
    return sum(1 for _ in counter_dir.iterdir())


def chaos_execute_run(spec: RunSpec) -> dict[str, Any]:
    """Drop-in for ``execute_run`` that consults the chaos plan first.

    Module-level (picklable by reference) so ``run_campaign`` can ship
    it into pool workers as ``run_fn``.  Without ``REPRO_CHAOS_DIR`` in
    the environment it degrades to plain ``execute_run``.
    """
    chaos_root = os.environ.get(ENV_DIR)
    if chaos_root:
        root = Path(chaos_root)
        plan_path = root / "plan.json"
        if plan_path.exists():
            plan = json.loads(plan_path.read_text())
            ident = run_id(spec)
            entry = plan.get(ident)
            if entry is not None:
                _misbehave(root, ident, entry)
    return execute_run(spec)


def _misbehave(root: Path, ident: str, entry: dict[str, Any]) -> None:
    """Apply one planned behaviour (or pass, once ``times`` is spent)."""
    attempt = claim_attempt(root, ident)
    times = entry.get("times")
    if times is not None and attempt >= times:
        return  # injected fault budget spent; behave from here on
    mode = entry["mode"]
    if mode == "fail":
        raise ChaosFailure(
            f"injected deterministic failure for run {ident} "
            f"(attempt {attempt})"
        )
    if mode == "kill":
        # Die the way the OOM-killer would: uncatchable, mid-run,
        # breaking the ProcessPoolExecutor for everyone sharing it.
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        time.sleep(float(entry.get("hang_s", 30.0)))
        # Only reached if the supervisor failed to kill the worker.
        raise ChaosFailure(
            f"injected hang for run {ident} outlived its timeout"
        )
    if mode not in ("fail", "kill", "hang"):
        raise ValueError(f"unknown chaos mode {mode!r} for run {ident}")


def _segment(store_root: str | Path) -> Path:
    return Path(store_root) / "runs.jsonl"


def record_spans(store_root: str | Path) -> list[tuple[int, int]]:
    """``(offset, length)`` of every complete line of a store's segment."""
    spans = []
    offset = 0
    # The piece after the last newline is a torn tail (or empty).
    for line in _segment(store_root).read_bytes().split(b"\n")[:-1]:
        spans.append((offset, len(line) + 1))
        offset += len(line) + 1
    return spans


def damage_record(
    store_root: str | Path, n: int, how: str = "truncate"
) -> None:
    """Damage record ``n`` of a store's segment the way real-world
    corruption does.

    ``truncate`` cuts the line mid-JSON but keeps its newline (a torn
    write that a later append fenced off) -- every later record moves;
    ``flip`` alters a payload digit in place, under the checksum
    (bit-rot / hand edit); ``garbage`` overwrites the line in place.
    Open a fresh ``ResultStore`` afterwards, as a resuming process would.
    """
    path = _segment(store_root)
    data = path.read_bytes()
    offset, length = record_spans(store_root)[n]
    line = data[offset:offset + length]
    if how == "truncate":
        line = line[: length // 2] + b"\n"
    elif how == "flip":
        # A digit inside the payload, so the line still parses as JSON;
        # an already mangled line just gets another byte changed.
        start = max(line.find(b'"payload":'), 0)
        at = next(
            (i for i in range(start, length - 1) if line[i:i + 2].isdigit()),
            0,
        )
        flipped = b"1" if line[at:at + 1] != b"1" else b"2"
        line = line[:at] + flipped + line[at + 1:]
    elif how == "garbage":
        line = b"\x00\xff" + b"#" * (length - 3) + b"\n"
    else:
        raise ValueError(f"unknown corruption {how!r}")
    path.write_bytes(data[:offset] + line + data[offset + length:])


def truncate_tail(store_root: str | Path, n_bytes: int) -> None:
    """Cut the last ``n_bytes`` off a store's segment (a writer killed
    mid-record, or a half-copied store)."""
    path = _segment(store_root)
    data = path.read_bytes()
    path.write_bytes(data[: max(0, len(data) - n_bytes)])
