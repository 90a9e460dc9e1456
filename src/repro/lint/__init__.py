"""Determinism & protocol-invariant static analysis (``repro lint``).

The simulator's credibility rests on invariants no unit test can watch
everywhere at once: bit-identical serial vs. sharded vs. resumed
campaign runs, seed-ordered metric merges, the frozen ``RunOptions``
surface, and the paper's protocol constants (the 5-bit Table 1 priority
domain, monotone laxity mapping, arbitration-driven master hand-over).
A single stray host-clock read or an unsorted dict iteration in front
of a JSON writer silently breaks them.

This package is an AST-based lint engine with repo-specific rules that
machine-check those invariants on every commit:

* run it as ``repro lint`` or ``python -m repro.lint``;
* suppress one finding with ``# repro-lint: disable=<rule>`` on the
  offending line (a pragma on a line of its own disables the rule for
  the whole file) — the one suppression mechanism.

See ``docs/LINTING.md`` for the rule catalogue and the invariant each
rule guards.
"""

from __future__ import annotations

from repro.lint.engine import LintEngine
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintEngine",
    "LintRule",
    "all_rules",
    "get_rule",
    "register",
]
