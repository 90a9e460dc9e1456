"""Runtime RNG audit: every generator the repo builds follows the master seed.

``tests/conftest.py`` installs the audit before its first ``repro``
import, and :func:`run_script` installs it for the example smoke tests.
It wraps the four RNG constructors: ``numpy.random.default_rng`` as a
function, and ``numpy.random.SeedSequence``, ``numpy.random.RandomState``
and ``random.Random`` as subclasses, so ``isinstance`` still holds.  It
judges only constructions whose calling frame is repo code under
``src/``, ``examples/`` or ``benchmarks/``, never under ``tests/`` or
site-packages, and flags two of them:

* **unseeded**: no entropy, ``None`` or ``seed=None`` draws fresh OS
  randomness, so two runs of the same command differ.  Only
  ``repro.cli`` may mint entropy (from ``--seed``).
* **import time**: a construction while a repo module's ``<module>``
  frame is on the stack.  ``def f(rng=default_rng(0))`` and module-level
  generators build one stream that every later call shares.

A violation raises :class:`RngAuditError` at the construction and is
also recorded; the autouse :func:`rng_audit_guard` fixture fails the
test on any recorded violation, so an ``except Exception`` in the code
under test cannot hide one.  The third hazard, a literal fork that makes
two runs with different master seeds share draws, needs two runs to
show: :func:`recording` collects each construction's ``(entropy,
spawn_key)`` and ``tests/test_rng_audit.py`` compares them across seeds.
"""

from __future__ import annotations

import os
import random
import runpy
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import FrameType
from typing import Any

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path prefixes of the repo code whose constructions are judged.
JUDGED_DIRS = tuple(
    str(REPO_ROOT / name) + os.sep for name in ("src", "examples", "benchmarks")
)

#: The one module allowed to mint fresh entropy (the CLI entry point).
ENTROPY_MINTING_MODULE = "repro.cli"


class RngAuditError(RuntimeError):
    """An RNG construction that breaks seed provenance."""


@dataclass(frozen=True)
class Construction:
    """One judged construction: who built it, and from which entropy."""

    constructor: str
    #: ``__name__`` of the calling frame's module.
    module: str
    #: ``(repr(entropy), spawn_key)`` of the stream.
    key: tuple[str, tuple[int, ...]]


#: Violations recorded since the last :func:`take_violations`.
VIOLATIONS: list[str] = []

#: ``repro`` modules already imported when :func:`install` ran (must be
#: empty: a module imported earlier may hold an unwrapped constructor).
PREINSTALLED: tuple[str, ...] | None = None

_recording: list[Construction] | None = None
_judged_files: dict[str, bool] = {}


def _is_repo(filename: str) -> bool:
    judged = _judged_files.get(filename)
    if judged is None:
        judged = os.path.realpath(filename).startswith(JUDGED_DIRS)
        _judged_files[filename] = judged
    return judged


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
    where = f"{frame.f_code.co_filename}:{frame.f_lineno}"
    message = f"{constructor}() at {where} {problem}"
    VIOLATIONS.append(message)
    raise RngAuditError(message)


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


def install() -> None:
    """Swap the audited constructors in (idempotent)."""
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


def take_violations() -> list[str]:
    """The violations recorded so far, clearing the record."""
    found = list(VIOLATIONS)
    VIOLATIONS.clear()
    return found


@contextmanager
def recording() -> Iterator[list[Construction]]:
    """Collect every judged construction made inside the block."""
    global _recording
    outer, _recording = _recording, []
    try:
        yield _recording
    finally:
        _recording = outer


@pytest.fixture(autouse=True)
def rng_audit_guard() -> Iterator[None]:
    """Fail the test on any violation, even one the code under test caught."""
    earlier = take_violations()
    yield
    found = earlier + take_violations()
    if found:
        pytest.fail("RNG audit:\n" + "\n".join(found), pytrace=False)


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
            sys.exit("RNG audit:\n" + "\n".join(VIOLATIONS))
