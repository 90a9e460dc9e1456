"""Whole-program rule self-tests: the three call-graph-backed rules.

Each rule gets positive fixtures (fires, with the right location and
message) and a negative fixture (stays quiet on the clean idiom), plus
regression pins for the two hazards the ISSUE names: seeded-RNG
laundering and an await-shared-state mutation outside ``_worker``.
"""

from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSeedProvenance:
    RULE = "seed-provenance"

    def test_literal_forks_direct_and_interprocedural(self, lint_tree):
        findings = lint_tree("seedprov_literal_bad.py", rules=(self.RULE,))
        messages = [f.message for f in findings]
        assert len(findings) == 2, messages
        assert any("seeded from a literal" in m for m in messages)
        assert any("literal seed passed to" in m for m in messages)
        # The interprocedural finding points at the literal argument.
        interproc = next(
            f for f in findings if "literal seed passed" in f.message
        )
        assert "make_rng" in interproc.message
        assert "'seed'" in interproc.message

    def test_unseeded_constructor_in_helper(self, lint_tree):
        findings = lint_tree("seedprov_unseeded_bad.py", rules=(self.RULE,))
        assert len(findings) == 1
        assert "constructed without entropy" in findings[0].message
        assert "_fresh_generator" in findings[0].message

    def test_laundering_regression(self, lint_tree):
        """Regression pin: drawing from an untyped parameter is caught."""
        findings = lint_tree("seedprov_launder_bad.py", rules=(self.RULE,))
        assert len(findings) == 1
        f = findings[0]
        assert "'rng'" in f.message
        assert "no generator annotation" in f.message
        assert f.path.endswith("launder.py")

    def test_quiet_on_provenance_preserving_chain(self, lint_tree):
        assert lint_tree("seedprov_good.py", rules=(self.RULE,)) == []

    def test_out_of_scope_module_is_ignored(self, lint_tree, tmp_path):
        # Same laundering pattern, but in repro.report: out of scope.
        from tests.lint.conftest import FIXTURES, run_rules

        text = (FIXTURES / "seedprov_launder_bad.py").read_text()
        text = text.replace(
            "# lint-fixture-path: repro/traffic/launder.py",
            "# lint-fixture-path: repro/report/launder.py",
        )
        root = tmp_path / "tree"
        dest = root / "repro" / "report" / "launder.py"
        dest.parent.mkdir(parents=True)
        (root / "repro" / "__init__.py").touch()
        (dest.parent / "__init__.py").touch()
        dest.write_text(text)
        assert run_rules(root, self.RULE) == []


class TestAsyncBlocking:
    RULE = "async-blocking"

    def test_sleep_in_service_coroutine(self, lint_tree):
        findings = lint_tree("asyncblock_sleep_bad.py", rules=(self.RULE,))
        assert len(findings) == 1
        assert "time.sleep()" in findings[0].message
        assert "pace" in findings[0].message

    def test_blocking_reachable_through_call_graph(self, lint_tree):
        """The subprocess wait is outside repro.service; only the edge
        AdmissionService.submit -> flush_log makes it checkable."""
        findings = lint_tree(
            "asyncblock_reach_bad.py",
            "asyncblock_helper.py",
            rules=(self.RULE,),
        )
        assert len(findings) == 1
        f = findings[0]
        assert f.path.endswith("ioutil.py")
        assert "subprocess.run()" in f.message

    def test_unreachable_helper_alone_is_quiet(self, lint_tree):
        # Without the service root, the helper is not reachable (and not
        # a service module), so the same blocking call is out of scope.
        assert lint_tree("asyncblock_helper.py", rules=(self.RULE,)) == []

    def test_quiet_on_asyncio_equivalents(self, lint_tree):
        assert lint_tree("asyncblock_good.py", rules=(self.RULE,)) == []


class TestAwaitSharedState:
    RULE = "await-shared-state"

    def test_straight_line_window(self, lint_tree):
        findings = lint_tree("awaitstate_bad.py", rules=(self.RULE,))
        assert len(findings) == 1
        f = findings[0]
        assert "self.count" in f.message
        assert "bump" in f.message
        assert f.line == 13  # the write after the await, not the first

    def test_loop_carried_window(self, lint_tree):
        findings = lint_tree("awaitstate_loop_bad.py", rules=(self.RULE,))
        assert len(findings) == 1
        assert "self._cycle" in findings[0].message

    def test_mutation_outside_worker_regression(self, lint_tree):
        """Regression pin (ISSUE): the exemption is the *worker only* —
        an identical pattern in any other coroutine still fires."""
        findings = lint_tree(
            "awaitstate_bad.py",
            "awaitstate_worker_good.py",
            rules=(self.RULE,),
        )
        assert len(findings) == 1
        assert findings[0].path.endswith("racer.py")

    def test_worker_branches_and_claim_first_are_quiet(self, lint_tree):
        assert lint_tree("awaitstate_worker_good.py", rules=(self.RULE,)) == []


class TestRealTree:
    """The shipped source tree must be clean under the three whole-program
    rules — real findings were fixed in the code, not baselined away."""

    def test_src_repro_clean_under_whole_program_rules(self, capsys):
        status = main(
            [
                str(REPO_ROOT / "src" / "repro"),
                "--select",
                "seed-provenance,async-blocking,await-shared-state",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, f"whole-program rules must stay clean:\n{out}"
