"""Parsed-module context handed to rules, including pragma suppression.

Pragma syntax (documented in docs/LINTING.md)::

    x = time.time()  # repro-lint: disable=no-wallclock-in-sim

    # repro-lint: disable=seed-provenance          <- on a line of its
    ...                                               own: whole file

Several rules may be disabled at once with a comma-separated list.
Unknown rule names in a pragma are themselves reported (rule name
``invalid-pragma``) so typos cannot silently disable nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.asthelpers import has_dotted_suffix
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.lint.callgraph import CallGraph

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-, ]+)")

#: Engine-level pseudo-rule name for malformed pragmas.
INVALID_PRAGMA = "invalid-pragma"


@dataclass
class Pragmas:
    """Suppressions parsed from one file's comments."""

    #: Rules disabled on specific (1-based) lines.
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Rules disabled for the whole file.
    file_wide: frozenset[str] = frozenset()
    #: Findings for pragmas naming unknown rules.
    invalid: tuple[Finding, ...] = ()

    def suppresses(self, rule: str, line: int) -> bool:
        """Whether a finding of ``rule`` at ``line`` is pragma-disabled."""
        if rule in self.file_wide:
            return True
        return rule in self.by_line.get(line, frozenset())


def parse_pragmas(
    path_rel: str, lines: list[str], known_rules: frozenset[str]
) -> Pragmas:
    """Extract ``# repro-lint: disable=...`` pragmas from source lines."""
    by_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    invalid: list[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        names = frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )
        unknown = names - known_rules
        for name in sorted(unknown):
            invalid.append(
                Finding(
                    rule=INVALID_PRAGMA,
                    path=path_rel,
                    line=lineno,
                    col=match.start(),
                    message=f"pragma disables unknown rule {name!r}",
                )
            )
        names &= known_rules
        if not names:
            continue
        code_before = text[: match.start()].strip()
        if code_before:
            by_line[lineno] = by_line.get(lineno, frozenset()) | names
        else:
            file_wide |= names
    return Pragmas(
        by_line=by_line, file_wide=frozenset(file_wide), invalid=tuple(invalid)
    )


@dataclass
class ModuleInfo:
    """One parsed source file, as rules see it."""

    #: Absolute path on disk.
    path: Path
    #: Path relative to the linted root (POSIX separators).
    rel: str
    #: Dotted module name derived from the package layout
    #: (e.g. ``repro.sim.engine``); the file stem for loose scripts.
    module: str
    tree: ast.Module
    lines: list[str]
    pragmas: Pragmas

    def source_segment(self, node: ast.AST) -> str:
        """Best-effort source text of one node (for messages)."""
        return ast.get_source_segment("\n".join(self.lines), node) or ""


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, derived from ``__init__.py`` chains.

    Walks up from the file while each parent directory is a package
    (contains ``__init__.py``); matches how the import system would name
    the module from the nearest non-package root (``src/`` here).
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:  # pragma: no cover - filesystem root
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def load_module(
    path: Path, root: Path, known_rules: frozenset[str]
) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    lines = source.splitlines()
    return ModuleInfo(
        path=path,
        rel=rel,
        module=module_name_for(path),
        tree=tree,
        lines=lines,
        pragmas=parse_pragmas(rel, lines, known_rules),
    )


@dataclass
class Project:
    """Every module of one lint invocation, for project-scoped rules."""

    root: Path
    modules: tuple[ModuleInfo, ...]
    _graph: "CallGraph | None" = field(
        default=None, repr=False, compare=False
    )

    def call_graph(self) -> "CallGraph":
        """The project call graph, built lazily once per invocation."""
        if self._graph is None:
            from repro.lint.callgraph import build_call_graph

            self._graph = build_call_graph(self)
        return self._graph

    def find(self, suffix: str) -> ModuleInfo | None:
        """The unique module whose dotted name ends with ``suffix``.

        Matching is on dotted-name boundaries: ``obs.events`` matches
        ``repro.obs.events`` but not ``repro.obs.revents``.
        """
        for module in self.modules:
            if has_dotted_suffix(module.module, suffix):
                return module
        return None
