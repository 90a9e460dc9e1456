"""Engine mechanics: discovery, module names, pragmas, reporters."""

import json

from repro.lint.asthelpers import has_dotted_suffix
from repro.lint.context import module_name_for, parse_pragmas
from repro.lint.engine import LintEngine
from repro.lint.findings import Finding
from repro.lint.registry import all_rules, get_rule, rule_names
from repro.lint.reporters import render_json, render_text

from tests.lint.conftest import materialise, run_rules


def _write_tree(tmp_path, rel, text):
    root = tmp_path / "tree"
    dest = root / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    package_dir = dest.parent
    while package_dir != root:
        (package_dir / "__init__.py").touch()
        package_dir = package_dir.parent
    dest.write_text(text)
    return root


class TestModuleNames:
    def test_dotted_name_from_init_chain(self, tmp_path):
        root = _write_tree(tmp_path, "repro/sim/engine.py", "x = 1\n")
        assert module_name_for(root / "repro/sim/engine.py") == "repro.sim.engine"

    def test_package_init_names_the_package(self, tmp_path):
        root = _write_tree(tmp_path, "repro/sim/engine.py", "x = 1\n")
        assert module_name_for(root / "repro/sim/__init__.py") == "repro.sim"

    def test_loose_script_uses_stem(self, tmp_path):
        script = tmp_path / "scratch.py"
        script.write_text("x = 1\n")
        assert module_name_for(script) == "scratch"

    def test_suffix_matches_on_dotted_boundaries(self):
        assert has_dotted_suffix("repro.obs.events", "obs.events")
        assert has_dotted_suffix("obs.events", "obs.events")
        assert not has_dotted_suffix("repro.obs.revents", "obs.events")
        assert has_dotted_suffix("repro.cli", "sim.profiling", "cli")
        assert not has_dotted_suffix("repro.cli")


class TestPragmas:
    def test_standalone_pragma_is_file_wide(self, tmp_path):
        root = _write_tree(
            tmp_path,
            "repro/sim/engine.py",
            "# repro-lint: disable=no-wallclock-in-sim\n"
            "import time\n\n\n"
            "def f():\n"
            '    """Doc."""\n'
            "    return time.time()\n",
        )
        assert run_rules(root, "no-wallclock-in-sim") == []

    def test_pragma_only_suppresses_named_rule(self, tmp_path):
        root = _write_tree(
            tmp_path,
            "repro/sim/engine.py",
            "import time\n\n\n"
            "def f():\n"
            '    """Doc."""\n'
            "    return time.time()  # repro-lint: disable=seed-provenance\n",
        )
        findings = run_rules(root, "no-wallclock-in-sim")
        assert [f.rule for f in findings] == ["no-wallclock-in-sim"]

    def test_unknown_rule_in_pragma_is_reported(self, tmp_path):
        root = _write_tree(
            tmp_path,
            "repro/sim/engine.py",
            "x = 1  # repro-lint: disable=no-such-rule\n",
        )
        findings, _ = LintEngine().run([root], root=root)
        assert [f.rule for f in findings] == ["invalid-pragma"]
        assert "no-such-rule" in findings[0].message

    def test_pragma_naming_a_removed_rule_is_reported(self, tmp_path):
        """The folded RNG rule names no longer suppress anything."""
        root = _write_tree(
            tmp_path,
            "repro/sim/engine.py",
            "import numpy as np\n"
            "rng = np.random.default_rng()"
            "  # repro-lint: disable=no-unseeded-rng, rng-not-defaulted\n",
        )
        findings, _ = LintEngine().run([root], root=root)
        assert sorted(f.rule for f in findings) == [
            "invalid-pragma",
            "invalid-pragma",
            "seed-provenance",
        ]

    def test_comma_separated_rule_list(self):
        pragmas = parse_pragmas(
            "m.py",
            ["x = 1  # repro-lint: disable=a, b"],
            known_rules=frozenset({"a", "b"}),
        )
        assert pragmas.suppresses("a", 1)
        assert pragmas.suppresses("b", 1)
        assert not pragmas.suppresses("a", 2)


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        root = _write_tree(tmp_path, "repro/sim/engine.py", "def f(:\n")
        findings, n_files = LintEngine().run([root], root=root)
        assert n_files == 3  # the module and the two generated __init__.py
        assert any(f.rule == "syntax-error" for f in findings)

    def test_findings_sorted_and_paths_relative(self, tmp_path):
        root = materialise(tmp_path, "wallclock_bad.py", "rng_bad.py")
        findings = run_rules(root, "no-wallclock-in-sim", "seed-provenance")
        assert findings == sorted(findings, key=lambda f: f.sort_key)
        assert all(not f.path.startswith("/") for f in findings)

    def test_single_file_path_accepted(self, tmp_path):
        root = materialise(tmp_path, "wallclock_bad.py")
        target = root / "repro/sim/engine.py"
        findings, n_files = LintEngine(
            (get_rule("no-wallclock-in-sim"),)
        ).run([target], root=root)
        assert n_files == 1
        assert len(findings) == 4


class TestReporters:
    FINDING = Finding(
        rule="no-wallclock-in-sim", path="a/b.py", line=3, col=7, message="msg"
    )

    def test_text_lines_and_summary(self):
        text = render_text([self.FINDING], n_files=4)
        assert "a/b.py:3:7: no-wallclock-in-sim msg" in text
        assert text.endswith("1 finding in 4 files")

    def test_clean_summary(self):
        assert "0 findings" in render_text([], n_files=4)

    def test_json_shape(self):
        doc = json.loads(render_json([self.FINDING], n_files=4))
        assert sorted(doc) == ["count", "files", "findings"]
        assert doc["count"] == 1
        assert doc["files"] == 4
        assert doc["findings"][0] == {
            "rule": "no-wallclock-in-sim",
            "path": "a/b.py",
            "line": 3,
            "col": 7,
            "message": "msg",
        }


class TestRegistry:
    def test_catalogue_is_sorted_and_complete(self):
        names = [r.name for r in all_rules()]
        assert names == sorted(names)
        assert len(names) == 7
        assert rule_names() == set(names)

    def test_every_rule_declares_its_invariant(self):
        for rule in all_rules():
            assert rule.summary, rule.name
            assert rule.invariant, rule.name
