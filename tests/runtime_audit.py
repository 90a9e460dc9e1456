"""Runtime audit: seeded streams, a never-blocking event loop, no host clock.

``tests/conftest.py`` installs the audit before its first ``repro``
import, and :func:`run_script` installs it for the example smoke tests.
It swaps audited stand-ins into numpy and the standard library (plain
wrappers for functions, subclasses for classes, so ``isinstance`` still
holds) and judges only calls from repo code under ``src/``,
``examples/`` or ``benchmarks/``, never under ``tests/`` or
site-packages.  Three audits share one violation record:

* **RNG provenance** of ``numpy.random.default_rng``, ``SeedSequence``,
  ``RandomState`` and ``random.Random``.  *Unseeded*: no entropy,
  ``None`` or ``seed=None`` draws fresh OS randomness, so two runs of the
  same command differ; only ``repro.cli`` may mint entropy (from
  ``--seed``).  *Import time*: a construction while a repo module's
  ``<module>`` frame is on the stack; ``def f(rng=default_rng(0))`` and
  module-level generators build one stream that every later call shares.
  The third hazard, a literal fork that makes two runs with different
  master seeds share draws, needs two runs to show: :func:`recording`
  collects each construction's ``(entropy, spawn_key)`` and
  ``tests/test_rng_audit.py`` compares them across seeds.
* **Blocking calls** (:data:`BLOCKING_CALLS`, ``subprocess.Popen`` and
  ``ProcessPoolExecutor``) while a repo coroutine is on the stack: one
  blocking call stalls the admission service's event loop, and with it
  every pending client (paper Section 6 serialises admission through one
  worker coroutine).
* **Host-clock reads** (the :data:`CLOCKS` of ``time`` and
  ``datetime.datetime.now``/``utcnow``/``today``) whose calling frame is
  repo code outside :data:`CLOCK_MODULES`, :data:`CLOCK_SITES` and
  ``benchmarks/``: results are slot-domain, so serial, sharded and
  resumed runs stay bit-identical.

Every violation is recorded, and the autouse :func:`runtime_audit_guard`
fixture fails the test on any of them, so an ``except Exception`` in the
code under test cannot hide one.  An RNG violation also raises
:class:`RngAuditError` at the construction, so no bad stream is used.  A
blocking call or clock read is only recorded: raised inside the event
loop, it could kill the admission worker and leave its clients awaiting
forever, hanging the test instead of failing it.
"""

from __future__ import annotations

import builtins
import concurrent.futures
import datetime as _datetime
import functools
import inspect
import io
import multiprocessing
import os
import pathlib
import random
import runpy
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import FrameType
from typing import Any

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path prefixes of the repo code whose calls are judged.
JUDGED_DIRS = tuple(
    str(REPO_ROOT / name) + os.sep for name in ("src", "examples", "benchmarks")
)

#: The one module allowed to mint fresh entropy (the CLI entry point).
ENTROPY_MINTING_MODULE = "repro.cli"

#: Blocking calls banned while a repo coroutine runs, as ``(owner, name)``.
BLOCKING_CALLS = (
    (time, "sleep"),
    (os, "system"),
    (os, "popen"),
    (os, "wait"),
    (os, "waitpid"),
    (subprocess, "run"),
    (subprocess, "call"),
    (subprocess, "check_call"),
    (subprocess, "check_output"),
    (subprocess, "getoutput"),
    (subprocess, "getstatusoutput"),
    (builtins, "open"),
    (io, "open"),
    (socket, "create_connection"),
    (multiprocessing, "Pool"),
    (pathlib.Path, "read_text"),
    (pathlib.Path, "write_text"),
    (pathlib.Path, "read_bytes"),
    (pathlib.Path, "write_bytes"),
)

#: The host clocks of the ``time`` module.
CLOCKS = (
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
)

#: Modules whose job is host-side measurement or provenance.
CLOCK_MODULES = frozenset(
    {"repro.sim.wallclock", "repro.sim.profiling", "repro.obs.manifest", "repro.cli"}
)

#: Single call sites, ``(module, qualname)``, that may read the host
#: clock, and why.  A module-wide exemption would also waive any new
#: clock read added beside them.
CLOCK_SITES = {
    ("repro.campaign.executor", "_now"): (
        "supervision deadlines and retry backoff, never a result"
    ),
    ("repro.campaign.executor", "execute_run"): (
        "a run's elapsed seconds, stored in the document's host-side "
        "meta, never in its deterministic row"
    ),
    ("repro.service.server", "AdmissionService.submit"): (
        "submission timestamp of the host-side request latency"
    ),
    ("repro.service.server", "AdmissionService._serve"): (
        "host-side request latency, a property of the event loop"
    ),
}

_ASYNC = inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class RngAuditError(RuntimeError):
    """An RNG construction that breaks seed provenance."""


@dataclass(frozen=True)
class Construction:
    """One judged RNG construction: who built it, and from which entropy."""

    constructor: str
    #: ``__name__`` of the calling frame's module.
    module: str
    #: ``(repr(entropy), spawn_key)`` of the stream.
    key: tuple[str, tuple[int, ...]]


#: Violations recorded since the last :func:`take_violations`.
VIOLATIONS: list[str] = []

#: ``repro`` modules already imported when :func:`install` ran (must be
#: empty: a module imported earlier may hold an unwrapped original).
PREINSTALLED: tuple[str, ...] | None = None

_recording: list[Construction] | None = None
_judged_files: dict[str, bool] = {}


def _is_repo(filename: str) -> bool:
    judged = _judged_files.get(filename)
    if judged is None:
        judged = os.path.realpath(filename).startswith(JUDGED_DIRS)
        _judged_files[filename] = judged
    return judged


def _where(frame: FrameType) -> str:
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _record(message: str) -> str:
    VIOLATIONS.append(message)
    return message


# -- RNG provenance -----------------------------------------------------


def _importing_module(frame: FrameType | None) -> str | None:
    """The repo module being imported somewhere up the stack, if any."""
    while frame is not None:
        if (
            frame.f_code.co_name == "<module>"
            and _is_repo(frame.f_code.co_filename)
            and frame.f_globals.get("__name__") != "__main__"
        ):
            return str(frame.f_globals.get("__name__"))
        frame = frame.f_back
    return None


def _entropy(args: tuple[Any, ...], kwargs: dict[str, Any], keyword: str) -> Any:
    return args[0] if args else kwargs.get(keyword)


def _audit(constructor: str, entropy: Any, key: tuple[str, tuple[int, ...]]) -> None:
    """Judge one construction; called from a wrapper, so the caller is 2 up."""
    frame = sys._getframe(2)
    if not _is_repo(frame.f_code.co_filename):
        return
    module = str(frame.f_globals.get("__name__"))
    if _recording is not None:
        _recording.append(Construction(constructor, module, key))
    if entropy is None and module != ENTROPY_MINTING_MODULE:
        problem = (
            "has no entropy and draws fresh OS randomness; thread an "
            "rng: np.random.Generator (or a seed) down from the caller"
        )
    elif (importing := _importing_module(frame)) is not None:
        problem = (
            f"runs while {importing} is imported, so every later call "
            "shares one stream; default to None and construct per run"
        )
    else:
        return
    raise RngAuditError(_record(f"{constructor}() at {_where(frame)} {problem}"))


def _seed_key(seed_seq: Any) -> tuple[str, tuple[int, ...]]:
    return (
        repr(getattr(seed_seq, "entropy", None)),
        tuple(getattr(seed_seq, "spawn_key", ())),
    )


_default_rng = np.random.default_rng


def default_rng(*args: Any, **kwargs: Any) -> np.random.Generator:
    generator = _default_rng(*args, **kwargs)
    _audit(
        "default_rng",
        _entropy(args, kwargs, "seed"),
        _seed_key(generator.bit_generator.seed_seq),
    )
    return generator


class SeedSequence(np.random.SeedSequence):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        _audit("SeedSequence", _entropy(args, kwargs, "entropy"), _seed_key(self))


class RandomState(np.random.RandomState):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        seed = _entropy(args, kwargs, "seed")
        _audit("RandomState", seed, (repr(seed), ()))


class Random(random.Random):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        seed = _entropy(args, kwargs, "x")
        _audit("Random", seed, (repr(seed), ()))


# -- blocking calls and host clocks -------------------------------------

_inside = threading.local()


def _caller() -> FrameType:
    """The innermost frame outside this module."""
    frame = sys._getframe(1)
    while frame.f_code.co_filename == __file__:
        frame = frame.f_back
    return frame


def _blocking(name: str) -> None:
    """Flag a blocking call made while a repo coroutine is on the stack."""
    caller = frame = _caller()
    while frame is not None:
        code = frame.f_code
        if code.co_flags & _ASYNC and _is_repo(code.co_filename):
            _record(
                f"{name}() at {_where(caller)} blocks the event loop running "
                f"coroutine {code.co_qualname} ({_where(frame)}); use the "
                "asyncio equivalent or move it off the loop"
            )
            return
        frame = frame.f_back


def _clock(name: str) -> None:
    """Flag a clock read whose caller is repo code off the allowlist."""
    frame = _caller()
    code = frame.f_code
    if not _is_repo(code.co_filename):
        return
    module = frame.f_globals.get("__name__")
    if (
        module in CLOCK_MODULES
        or (module, code.co_qualname) in CLOCK_SITES
        or os.path.realpath(code.co_filename).startswith(JUDGED_DIRS[2])
    ):
        return
    _record(
        f"{name}() at {_where(frame)} reads the host clock in "
        f"{module}.{code.co_qualname}; results must derive from the slot "
        "counter (host timing belongs in repro.sim.profiling or "
        "repro.obs.manifest)"
    )


def _audited(
    judge: Callable[[str], None],
    name: str,
    call: Callable[..., Any],
    *args: Any,
    **kwargs: Any,
) -> Any:
    """Judge ``name``, then make the call.  The audited calls it makes
    itself (``run`` -> ``Popen`` -> ``waitpid``, ``datetime.today`` ->
    ``time.time``) are not judged again."""
    if getattr(_inside, "call", False):
        return call(*args, **kwargs)
    judge(name)
    _inside.call = True
    try:
        return call(*args, **kwargs)
    finally:
        _inside.call = False


class Popen(subprocess.Popen):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        _audited(_blocking, "subprocess.Popen", super().__init__, *args, **kwargs)


class ProcessPoolExecutor(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        _audited(_blocking, "ProcessPoolExecutor", super().__init__, *args, **kwargs)


class datetime(_datetime.datetime):
    @classmethod
    def now(cls, tz: Any = None) -> Any:
        return _audited(_clock, "datetime.now", super().now, tz)

    @classmethod
    def utcnow(cls) -> Any:
        return _audited(_clock, "datetime.utcnow", super().utcnow)

    @classmethod
    def today(cls) -> Any:
        return _audited(_clock, "datetime.today", super().today)


def _swap(owner: Any, name: str, judge: Callable[[str], None]) -> None:
    original = getattr(owner, name)
    label = name if owner is builtins else f"{owner.__name__}.{name}"

    @functools.wraps(original)
    def audited(*args: Any, **kwargs: Any) -> Any:
        return _audited(judge, label, original, *args, **kwargs)

    setattr(owner, name, audited)


def install() -> None:
    """Swap the audited stand-ins in (idempotent)."""
    global PREINSTALLED
    if PREINSTALLED is not None:
        return
    PREINSTALLED = tuple(
        sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
    )
    np.random.default_rng = default_rng
    np.random.SeedSequence = SeedSequence
    np.random.RandomState = RandomState
    random.Random = Random
    for owner, name in BLOCKING_CALLS:
        _swap(owner, name, _blocking)
    subprocess.Popen = Popen
    concurrent.futures.ProcessPoolExecutor = ProcessPoolExecutor
    for name in CLOCKS:
        _swap(time, name, _clock)
    _datetime.datetime = datetime


def take_violations() -> list[str]:
    """The violations recorded so far, clearing the record."""
    found = list(VIOLATIONS)
    VIOLATIONS.clear()
    return found


@contextmanager
def recording() -> Iterator[list[Construction]]:
    """Collect every judged RNG construction made inside the block."""
    global _recording
    outer, _recording = _recording, []
    try:
        yield _recording
    finally:
        _recording = outer


@pytest.fixture(autouse=True)
def runtime_audit_guard() -> Iterator[None]:
    """Fail the test on any violation, even one the code under test caught."""
    earlier = take_violations()
    yield
    found = earlier + take_violations()
    if found:
        pytest.fail("Runtime audit:\n" + "\n".join(found), pytrace=False)


def run_script(path: str, *argv: str) -> None:
    """Run ``path`` as ``__main__`` under the audit (``python -c`` bootstrap).

    Mirrors ``python path argv...``: the script's directory leads
    ``sys.path``.  Exits non-zero if a violation was recorded, caught or
    not.
    """
    install()
    sys.argv = [path, *argv]
    sys.path[0] = os.path.dirname(os.path.abspath(path))
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        if VIOLATIONS:
            sys.exit("Runtime audit:\n" + "\n".join(VIOLATIONS))
