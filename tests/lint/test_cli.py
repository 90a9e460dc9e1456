"""CLI behaviour (exit codes, formats, flags) and the pinned clean-tree gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main

from tests.lint.conftest import materialise

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = materialise(tmp_path, "wallclock_good.py")
        assert main([str(root)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = materialise(tmp_path, "wallclock_bad.py")
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "no-wallclock-in-sim" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "does-not-exist")]) == 2

    def test_existing_non_python_file_exits_two(self, tmp_path, capsys):
        """Regression: an existing non-.py path is a usage error (2),
        distinct from a missing path — not a crash, not silently ignored."""
        target = tmp_path / "data.json"
        target.write_text("{}")
        assert main([str(target)]) == 2
        err = capsys.readouterr().err
        assert "not a python file or directory" in err

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        root = materialise(tmp_path, "wallclock_good.py")
        assert main([str(root), "--select", "no-such-rule"]) == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_select_limits_rules(self, tmp_path, capsys):
        root = materialise(tmp_path, "wallclock_bad.py", "frozen_bad.py")
        assert main([str(root), "--select", "frozen-dataclass-mutation"]) == 1
        out = capsys.readouterr().out
        assert "frozen-dataclass-mutation" in out
        assert "no-wallclock-in-sim" not in out

    def test_json_format(self, tmp_path, capsys):
        root = materialise(tmp_path, "wallclock_bad.py")
        assert main([str(root), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 4
        assert all(f["rule"] == "no-wallclock-in-sim" for f in doc["findings"])

    @pytest.mark.parametrize(
        "removed",
        [
            ["--baseline", "x"],
            ["--update-baseline"],
            ["--graph-cache", "x"],
            ["--graph"],
        ],
        ids=["baseline", "update-baseline", "graph-cache", "graph"],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, removed):
        root = materialise(tmp_path, "wallclock_good.py")
        with pytest.raises(SystemExit) as excinfo:
            main([str(root), *removed])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestListRules:
    def test_lists_the_full_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6
        for name in (
            "no-wallclock-in-sim",
            "frozen-dataclass-mutation",
            "sorted-iteration-before-serialization",
            "event-metric-parity",
            "async-blocking",
            "await-shared-state",
        ):
            assert name in out


class TestRealTree:
    """The acceptance gate: the shipped source tree must lint clean."""

    def test_src_repro_is_lint_clean(self, capsys):
        """No flags: pragmas in the tree are the only suppressions."""
        status = main([str(SRC_REPRO)])
        out = capsys.readouterr().out
        assert status == 0, f"src/repro must stay lint-clean:\n{out}"

    def test_examples_and_benchmarks_are_lint_clean(self, capsys):
        paths = [
            str(REPO_ROOT / d)
            for d in ("examples", "benchmarks")
            if (REPO_ROOT / d).is_dir()
        ]
        assert paths, "examples/ and benchmarks/ should exist"
        status = main(paths)
        out = capsys.readouterr().out
        assert status == 0, f"examples/benchmarks must stay lint-clean:\n{out}"

    def test_reintroduced_wallclock_in_sim_fails(self, tmp_path, capsys):
        """Regression pin: the exact hazard the suite exists to catch."""
        sim = tmp_path / "repro" / "sim"
        sim.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").touch()
        (sim / "__init__.py").touch()
        (sim / "clock.py").write_text(
            '"""Slot clock."""\n'
            "import time\n\n"
            "now = time.time()\n"
        )
        assert main([str(tmp_path)]) == 1
        assert (
            "sim/clock.py:4:6: no-wallclock-in-sim"
            in capsys.readouterr().out
        )


class TestEntryPoints:
    def test_python_dash_m_repro_lint(self, tmp_path):
        root = materialise(tmp_path, "wallclock_bad.py")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(root)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "no-wallclock-in-sim" in proc.stdout

    def test_repro_cli_subcommand(self, tmp_path):
        root = materialise(tmp_path, "wallclock_good.py")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", str(root)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout
