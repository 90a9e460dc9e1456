"""Rule registry: every rule class registers itself by name.

A rule is a class with a unique ``name``, a one-line ``summary``, the
``invariant`` it guards (surfaced by ``repro lint --list-rules`` and the
docs), and either a per-module ``check_module`` (``scope = "file"``) or
a whole-project ``check_project`` (``scope = "project"`` — for rules
that must correlate several modules, e.g. counter names against event
types).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.context import ModuleInfo, Project


class LintRule:
    """Base class for lint rules; subclass and :func:`register`."""

    #: Unique kebab-case rule identifier (used in pragmas).
    name: str = ""
    #: One-line description for ``--list-rules``.
    summary: str = ""
    #: The repo invariant the rule guards (docs/LINTING.md).
    invariant: str = ""
    #: ``"file"`` (checked per module) or ``"project"`` (needs them all).
    scope: str = "file"

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        """Yield findings for one module (file-scoped rules)."""
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Yield findings across the whole linted tree (project rules)."""
        return ()


_REGISTRY: dict[str, LintRule] = {}


def register(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: instantiate and register a rule by its name."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls()
    return rule_cls


def all_rules() -> tuple[LintRule, ...]:
    """Every registered rule, in name order (deterministic output)."""
    _load_builtin_rules()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_rule(name: str) -> LintRule:
    """Look one rule up by name (raises ``KeyError`` for unknown names)."""
    _load_builtin_rules()
    return _REGISTRY[name]


def rule_names() -> frozenset[str]:
    """The set of registered rule names (pragma validation)."""
    _load_builtin_rules()
    return frozenset(_REGISTRY)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules exactly once."""
    import repro.lint.rules  # noqa: F401  (import populates the registry)
