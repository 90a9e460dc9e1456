"""The lint driver: walk files, run rules, apply pragmas."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.lint.context import ModuleInfo, Project, load_module
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, all_rules, rule_names

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a path that does not exist and
    ``ValueError`` for an existing path that is neither a directory nor
    a ``.py`` file — the distinction matters to callers (a typo'd path
    vs. pointing the linter at, say, a JSON file).
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.add(candidate.resolve())
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            out.add(path.resolve())
        else:
            raise ValueError(f"not a python file or directory: {path}")
    return sorted(out)


def _common_root(files: Sequence[Path]) -> Path:
    if not files:
        return Path.cwd()
    root = files[0].parent
    for path in files[1:]:
        while root not in path.parents and root != path.parent:
            if root.parent == root:  # pragma: no cover - filesystem root
                break
            root = root.parent
    return root


class LintEngine:
    """Runs a rule set over a tree of python files."""

    def __init__(self, rules: Iterable[LintRule] | None = None) -> None:
        self.rules: tuple[LintRule, ...] = (
            tuple(rules) if rules is not None else all_rules()
        )
        self.known_rules = rule_names()

    def run(
        self,
        paths: Sequence[str | Path],
        *,
        root: Path | None = None,
    ) -> tuple[list[Finding], int]:
        """Lint the given paths.

        Returns ``(findings, n_files)``; findings are sorted and already
        filtered through ``# repro-lint: disable`` pragmas.  Unparseable
        files yield a ``syntax-error`` finding instead of aborting the
        whole run.
        """
        project, findings = load_project(
            paths, known_rules=self.known_rules, root=root
        )
        modules = project.modules

        for module in modules:
            findings.extend(module.pragmas.invalid)
            for rule in self.rules:
                if rule.scope == "file":
                    findings.extend(rule.check_module(module))
        for rule in self.rules:
            if rule.scope == "project":
                findings.extend(rule.check_project(project))

        pragmas_by_rel = {m.rel: m.pragmas for m in modules}
        kept = [
            f
            for f in findings
            if not (
                (pragmas := pragmas_by_rel.get(f.path)) is not None
                and pragmas.suppresses(f.rule, f.line)
            )
        ]
        kept.sort(key=lambda f: f.sort_key)
        return kept, len(modules) + sum(
            1 for f in findings if f.rule == "syntax-error"
        )


def load_project(
    paths: Sequence[str | Path],
    *,
    known_rules: frozenset[str] | None = None,
    root: Path | None = None,
) -> tuple[Project, list[Finding]]:
    """Discover and parse a tree into a :class:`Project`.

    Shared by :meth:`LintEngine.run` and ``repro lint --graph``.
    Returns the project plus ``syntax-error`` findings for files that
    would not parse (those are excluded from the project's modules).
    """
    if known_rules is None:
        known_rules = rule_names()
    files = discover_files(paths)
    resolved_root = (root or _common_root(files)).resolve()
    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in files:
        try:
            modules.append(load_module(path, resolved_root, known_rules))
        except SyntaxError as exc:
            rel = _relative(path, resolved_root)
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
    return Project(root=resolved_root, modules=tuple(modules)), findings


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()
