"""Check that the vector tests kill every listed compiled-tier mutant.

Each row of :data:`MUTANTS` names one deliberate bug in the compiled
tier (``_ckernel.c`` or its Python shell ``ckernel.py``) as an exact
snippet and its replacement.  For each row the script copies ``src/`` to
a temporary directory, applies the mutant there, points
``REPRO_CKERNEL_CACHE`` at a fresh directory (so the mutated kernel is
compiled, not a cached build of the real one), and runs
``pytest tests/sim/vector -x`` against the copy.

Exit 1 when a mutant survives (the suite passed with the bug in) or when
a snippet does not occur exactly once in its file (the table no longer
matches the source and must be updated); exit 0 when every mutant is
killed.  Known-equivalent mutants are not in the table; they are listed
in :data:`EQUIVALENT` with the reason.

Usage::

    python benchmarks/check_kernel_mutants.py [NAME ...]

With names, only those rows run.  About 10 s per mutant on a 2-vCPU
guest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VECTOR = Path("repro/sim/vector")
C_KERNEL = VECTOR / "_ckernel.c"
SHELL = VECTOR / "ckernel.py"

#: ``(name, file under src/, exact snippet, replacement)``.
MUTANTS: tuple[tuple[str, Path, str, str], ...] = (
    (
        "wheel bits walked in descending order",
        C_KERNEL,
        "int64_t c = w * 64 + __builtin_ctzll(bits);\n"
        "                bits &= bits - 1;",
        "int64_t c = w * 64 + 63 - __builtin_clzll(bits);\n"
        "                bits &= ~((uint64_t)1 << (c % 64));",
    ),
    (
        "node-mask bit not set on a release push",
        C_KERNEL,
        "occupied_nodes |= (uint64_t)1 << node;",
        "(void)node;",
    ),
    (
        "node-mask bit not set on a carried push",
        C_KERNEL,
        "occupied |= (uint64_t)1 << m_node[row];",
        "(void)occupied;",
    ),
    (
        "laxity table shifted by one",
        C_KERNEL,
        "prio_of_lax[lax] = rt_hi - k;",
        "prio_of_lax[lax] = rt_hi - k + (k > 0);",
    ),
    (
        "due check dropped",
        C_KERNEL,
        "if (conn_due[c] == s) {",
        "if (conn_due[c] >= 0) {",
    ),
    (
        "table clamp one level low",
        C_KERNEL,
        "lax_cap = rt_level_start[n_lower - 1];",
        "lax_cap = rt_level_start[n_lower - 1] - 1;",
    ),
    (
        "laxity cap ignoring carried rows",
        C_KERNEL,
        "for (int64_t row = 0; row < n_rows; row++) {\n"
        "        if (m_deadline[row] - s + 1 > lax_cap) {",
        "for (int64_t row = 0; row < 0; row++) {\n"
        "        if (m_deadline[row] - s + 1 > lax_cap) {",
    ),
    (
        "transmit-row remap dropped",
        C_KERNEL,
        "tx[j] = remap[tx[j]];",
        "tx[j] = tx[j];",
    ),
    (
        "den-row remap dropped",
        C_KERNEL,
        "den[j] = remap[den[j]];",
        "den[j] = den[j];",
    ),
    (
        "miss verdict with >= for >",
        C_KERNEL,
        "if (s > m_deadline[row]) {",
        "if (s >= m_deadline[row]) {",
    ),
    (
        "latency without its + 1",
        C_KERNEL,
        "int64_t latency = s - m_created[row] + 1;",
        "int64_t latency = s - m_created[row];",
    ),
    (
        "entry words ignored by the workspace pack",
        SHELL,
        "*(blank if entry is None else entry)",
        "*blank",
    ),
    (
        "carried rows left out of the pending plan's ingest",
        SHELL,
        "row_of[id(msg)] = len(pre_objs)",
        "row_of[id(msg)] = 0",
    ),
)

#: Mutants that change no observable result, with the reason; kept out
#: of the table so it holds only mutants a test must kill.
EQUIVALENT: tuple[tuple[str, str], ...] = (
    (
        "release wheel capped at 2^16 slots dropped",
        "changes the wheel's memory, not its behaviour: a bit filed laps "
        "early stays until its connection is due",
    ),
)


def check_table(src: Path) -> list[str]:
    """Rows whose snippet does not occur exactly once in its file."""
    problems = []
    for name, path, snippet, _ in MUTANTS:
        count = (src / path).read_text().count(snippet)
        if count != 1:
            problems.append(f"{name}: snippet found {count} times in {path}")
    return problems


def run_mutant(name: str, path: Path, snippet: str, replacement: str) -> bool:
    """Whether ``tests/sim/vector`` fails with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
        )
        target = src / path
        target.write_text(target.read_text().replace(snippet, replacement, 1))
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            PYTHONDONTWRITEBYTECODE="1",
            REPRO_CKERNEL_CACHE=str(Path(tmp) / "ckernel"),
        )
        env.pop("REPRO_NO_CKERNEL", None)
        # The copy, not an installed or in-tree repro, must be imported.
        where = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(src):
            raise SystemExit(f"check_kernel_mutants: imported {where}, not the copy")
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q", "-p",
                "no:cacheprovider", "tests/sim/vector",
            ],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    return result.returncode != 0


def main(argv: list[str]) -> int:
    problems = check_table(ROOT / "src")
    rows = [row for row in MUTANTS if not argv or row[0] in argv]
    unknown = set(argv) - {row[0] for row in MUTANTS}
    problems += [f"{name}: no such mutant" for name in sorted(unknown)]
    if problems:
        for problem in problems:
            print(f"TABLE  {problem}")
        return 1
    survivors = []
    for name, path, snippet, replacement in rows:
        t0 = time.perf_counter()
        killed = run_mutant(name, path, snippet, replacement)
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8} {name} ({time.perf_counter() - t0:.1f} s)", flush=True)
        if not killed:
            survivors.append(name)
    for name, reason in EQUIVALENT:
        print(f"skipped  {name}: {reason}")
    print(f"{len(rows) - len(survivors)}/{len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
