"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation.

    ``path`` is relative to the linted root (POSIX separators) so
    findings are machine-independent.
    ``line``/``col`` are 1-based / 0-based as in ``ast`` nodes.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> tuple[str, int, int, str, str]:
        """Stable report order: by location, then rule, then message."""
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the ``--format json`` reporter's rows)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The conventional one-line textual form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
