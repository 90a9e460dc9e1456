"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json

from repro.lint.findings import Finding


def render_text(findings: list[Finding], *, n_files: int) -> str:
    """One finding per line plus a summary trailer."""
    lines = [f.render() for f in findings]
    tail = (
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {n_files} file{'s' if n_files != 1 else ''}"
    )
    lines.append(tail)
    return "\n".join(lines)


def render_json(findings: list[Finding], *, n_files: int) -> str:
    """Stable JSON document (sorted findings, sorted keys)."""
    doc = {
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
        "files": n_files,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
