"""``repro lint`` / ``python -m repro.lint`` command-line front end."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules, rule_names
from repro.lint.reporters import render_json, render_text


def default_paths() -> list[str]:
    """What to lint when no path is given.

    Prefers ``src/repro`` under the current directory (the in-repo
    workflow); falls back to the installed package's own source tree.
    """
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [str(candidate)]
    import repro

    return [str(Path(repro.__file__).resolve().parent)]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Register lint options (shared by ``repro lint`` and ``-m``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _print_report(text: str) -> None:
    """Print a (possibly large) report, tolerating a closed pipe.

    ``repro lint | head`` closes stdout early; that is normal use of a
    long report, not an error worth a traceback.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit status."""
    rules = all_rules()
    if args.list_rules:
        width = max(len(r.name) for r in rules)
        for rule in rules:
            print(f"{rule.name:<{width}}  {rule.summary}")
        return 0

    if args.select:
        wanted = {name.strip() for name in args.select.split(",") if name.strip()}
        unknown = wanted - rule_names()
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = tuple(r for r in rules if r.name in wanted)

    try:
        findings, n_files = LintEngine(rules).run(
            args.paths or default_paths()
        )
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    render = render_json if args.format == "json" else render_text
    _print_report(render(findings, n_files=n_files))
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Stand-alone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "determinism & protocol-invariant static analysis "
            "(see docs/LINTING.md)"
        ),
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
