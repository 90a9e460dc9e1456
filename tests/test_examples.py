"""Smoke tests: every example script runs to completion.

The examples are user-facing deliverables with their own internal
assertions (zero-miss guarantees, reduction correctness, admission
outcomes); running them end to end is the cheapest full-stack test the
repository has.  Each runs as a subprocess so import-time and
``__main__`` behaviour are covered too, under the runtime audit
(``tests/runtime_audit.py``): a ``-c`` bootstrap installs it, then runs the
script as ``__main__``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

#: ``python -c`` bootstrap: ``argv[1]`` is the repo root, ``argv[2]`` the
#: script to run under the runtime audit.
BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from tests.runtime_audit import run_script; run_script(sys.argv[2])"
)

#: (script, substrings that must appear in its stdout)
EXAMPLES = [
    (
        "quickstart.py",
        ["U_max", "ACCEPTED", "REJECTED", "All admitted deadlines met"],
    ),
    (
        "radar_pipeline.py",
        ["Radar pipeline connections", "ccr-edf", "ccfpr", "Shape check"],
    ),
    (
        "multimedia_lan.py",
        ["Stream admission", "met its wall-clock", "ACCEPTED"],
    ),
    (
        "admission_runtime.py",
        ["Phase 1", "Phase 2", "ACCEPTED", "0 missed deadlines"],
    ),
    (
        "parallel_collectives.py",
        ["BSP loop", "mean barrier cost", "exact global maximum"],
    ),
    (
        "fault_tolerance.py",
        ["Scenario 1", "Scenario 2", "designated node", "never violated"],
    ),
    (
        "capacity_planning.py",
        ["Step 1", "WCRT", "headroom", "0 missed"],
    ),
]


@pytest.mark.parametrize("script,expected", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_runs_clean(script, expected):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, "-c", BOOTSTRAP, str(REPO_ROOT), str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{result.stdout}\n"
        f"--- stderr ---\n{result.stderr}"
    )
    for needle in expected:
        assert needle in result.stdout, (
            f"{script}: expected {needle!r} in output"
        )


def test_every_example_file_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {s for s, _ in EXAMPLES}
    assert scripts == covered, (
        f"examples without smoke tests: {scripts - covered}; "
        f"stale entries: {covered - scripts}"
    )
