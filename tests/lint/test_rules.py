"""Fixture-driven self-tests: every rule fires on bad, stays quiet on good."""

from tests.lint.conftest import FIXTURES


class TestNoWallclockInSim:
    def test_fires_on_each_call_form(self, lint_tree):
        findings = lint_tree("wallclock_bad.py", rules=("no-wallclock-in-sim",))
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "time.monotonic()" in messages
        assert "time.perf_counter()" in messages
        assert "datetime.datetime.now()" in messages

    def test_quiet_on_slot_domain_code(self, lint_tree):
        assert lint_tree("wallclock_good.py", rules=("no-wallclock-in-sim",)) == []

    def test_allowlisted_module_exempt(self, lint_tree):
        assert (
            lint_tree("wallclock_allowed_module.py", rules=("no-wallclock-in-sim",))
            == []
        )

    def test_same_line_pragma_suppresses(self, lint_tree):
        assert lint_tree("wallclock_pragma.py", rules=("no-wallclock-in-sim",)) == []

    def test_service_module_is_not_exempt(self, lint_tree):
        """Regression: repro.service.server lost its wholesale exemption;
        a new clock read there must be flagged (the two real latency
        sites carry per-line pragmas instead)."""
        findings = lint_tree(
            "wallclock_service_bad.py", rules=("no-wallclock-in-sim",)
        )
        assert len(findings) == 1
        assert "time.perf_counter()" in findings[0].message


class TestFrozenDataclassMutation:
    def test_fires_outside_post_init(self, lint_tree):
        findings = lint_tree("frozen_bad.py", rules=("frozen-dataclass-mutation",))
        assert len(findings) == 1
        assert "dataclasses.replace" in findings[0].message

    def test_quiet_inside_post_init_and_setstate(self, lint_tree):
        assert (
            lint_tree("frozen_good.py", rules=("frozen-dataclass-mutation",)) == []
        )


class TestSortedIterationBeforeSerialization:
    RULE = "sorted-iteration-before-serialization"

    def test_fires_on_views_and_set_literals(self, lint_tree):
        findings = lint_tree("serialization_bad.py", rules=(self.RULE,))
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert ".items()" in messages
        assert ".keys()" in messages
        assert "set" in messages

    def test_quiet_when_sorted_or_reduced(self, lint_tree):
        assert lint_tree("serialization_good.py", rules=(self.RULE,)) == []

    def test_out_of_scope_module_exempt(self, lint_tree):
        assert lint_tree("serialization_out_of_scope.py", rules=(self.RULE,)) == []


class TestEventMetricParity:
    def test_quiet_when_names_map_to_taxonomy(self, lint_tree):
        assert (
            lint_tree("parity_events.py", "parity_good.py",
                      rules=("event-metric-parity",))
            == []
        )

    def test_fires_on_unmapped_names_including_fstring_prefixes(self, lint_tree):
        findings = lint_tree(
            "parity_events.py", "parity_bad.py", rules=("event-metric-parity",)
        )
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "'sim:bogus_total'" in messages
        assert "sim:zap:" in messages

    def test_quiet_without_event_taxonomy(self, lint_tree):
        assert lint_tree("parity_good.py", rules=("event-metric-parity",)) == []


def test_every_rule_has_a_fixture():
    """Each registered rule is exercised by at least one fixture test."""
    from repro.lint.registry import rule_names

    prefixes = {
        "no-wallclock-in-sim": "wallclock",
        "frozen-dataclass-mutation": "frozen",
        "sorted-iteration-before-serialization": "serialization",
        "event-metric-parity": "parity",
        "async-blocking": "asyncblock",
        "await-shared-state": "awaitstate",
    }
    assert set(prefixes) == rule_names()
    for prefix in prefixes.values():
        assert list(FIXTURES.glob(f"{prefix}*.py")), f"no fixtures for {prefix}"
