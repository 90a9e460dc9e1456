"""Asyncio-safety rule self-tests: ``async-blocking`` and
``await-shared-state``, which check every ``repro`` coroutine in its own
file.

Each rule gets positive fixtures (fires, with the right location and
message) and a negative fixture (stays quiet on the clean idiom), plus
a regression pin for an await-shared-state mutation outside ``_worker``.
"""

from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestAsyncBlocking:
    RULE = "async-blocking"

    def test_sleep_in_service_coroutine(self, lint_tree):
        """Plain, aliased and from-imported spellings all resolve, and a
        pathlib-style method name is blocking on any receiver."""
        findings = lint_tree("asyncblock_sleep_bad.py", rules=(self.RULE,))
        assert [f.message.split()[2] for f in findings] == [
            "time.sleep()",
            "time.sleep()",
            "subprocess.run()",
            "log.write_text()",
        ]
        assert [f.line for f in findings] == [11, 12, 13, 14]
        assert all("async def pace" in f.message for f in findings)

    def test_helper_coroutine_outside_service_fires(self, lint_tree):
        """A blocking call in any repro coroutine blocks the loop that
        runs it, whether or not the service package calls it."""
        findings = lint_tree("asyncblock_helper.py", rules=(self.RULE,))
        assert len(findings) == 1
        f = findings[0]
        assert f.path.endswith("ioutil.py")
        assert "subprocess.run()" in f.message

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
    """The shipped source tree must be clean under the two asyncio-safety
    rules — real findings were fixed in the code, not baselined away."""

    def test_src_repro_clean_under_whole_program_rules(self, capsys):
        status = main(
            [
                str(REPO_ROOT / "src" / "repro"),
                "--select",
                "async-blocking,await-shared-state",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, f"asyncio-safety rules must stay clean:\n{out}"
