"""Rule ``event-metric-parity``: counters and events tell one story.

The observability layer has two mirrors of a run: the
:class:`~repro.obs.registry.MetricRegistry` counters/histograms and the
typed event stream of :mod:`repro.obs.events` — and
``repro.obs.replay`` cross-checks report totals against the event log.
A counter incremented somewhere without a corresponding event type is a
number the replay can never reconstruct; it drifts silently.

This rule collects every *statically resolvable* counter/histogram name
passed to ``registry.inc(...)`` / ``registry.observe(...)`` across the
tree and requires each to correspond to the event taxonomy: some
``:``-separated segment equals an event ``kind``, or the final segment
equals a field of an event dataclass, or the name is covered by an
explicit allowlist entry (with its justification, mirrored in
docs/LINTING.md).  Names built from f-strings or constant prefixes are
matched on their literal prefix; fully dynamic names are skipped — keep
at least the prefix literal.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.asthelpers import (
    ImportMap,
    literal_str_prefix,
    module_constants,
)
from repro.lint.context import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

#: Counter names (or ``:``-terminated prefixes) with no event type, and
#: why that is deliberate.  Mirrored in docs/LINTING.md.
PARITY_ALLOWLIST: dict[str, str] = {
    "sim:latency_slots": (
        "per-delivery latency histogram; the slot event carries the "
        "delivered count and replay sums it — the distribution is "
        "registry-only by design"
    ),
    "sim:deadline_missed": (
        "run total of the slot event's per-slot 'missed' delta "
        "(replay reconstructs it by summation)"
    ),
    "sim:recoveries": "mirror of the 'recovery' event (count of them)",
    "phase:": (
        "phase-profiler timers; host-side measurement with deliberately "
        "no event stream"
    ),
}

#: Receiver method names that register a counter/histogram name.
REGISTRY_METHODS = frozenset({"inc", "observe"})

#: Modules skipped when collecting registration sites: the registry
#: defines the methods, the profiler forwards caller-supplied names.
SKIP_MODULE_SUFFIXES = ("obs.registry",)


def _event_taxonomy(events: ModuleInfo) -> tuple[frozenset[str], frozenset[str]]:
    """(kinds, field names) of the event dataclasses in ``obs.events``."""
    kinds: set[str] = set()
    fields: set[str] = set()
    for node in events.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        class_kinds: list[str] = []
        class_fields: list[str] = []
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "kind"
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                class_kinds.append(stmt.value.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                class_fields.append(stmt.target.id)
        if class_kinds:
            kinds.update(k for k in class_kinds if k)
            fields.update(class_fields)
    return frozenset(kinds), frozenset(fields)


def _allowlisted(name: str) -> bool:
    for entry in PARITY_ALLOWLIST:
        if entry.endswith(":"):
            if name.startswith(entry):
                return True
        elif name == entry:
            return True
    return False


def _matches_taxonomy(
    name: str, is_prefix: bool, kinds: frozenset[str], fields: frozenset[str]
) -> bool:
    segments = [s for s in name.split(":") if s]
    if is_prefix and name and not name.endswith(":"):
        # The last segment is a truncated literal (e.g. ``sim:fault:`` +
        # dynamic suffix arrives complete, but ``sim:rec`` + var does
        # not); only complete segments participate in matching.
        segments = segments[:-1]
    if any(seg in kinds for seg in segments):
        return True
    if not is_prefix and segments and segments[-1] in fields:
        return True
    return False


@register
class EventMetricParity(LintRule):
    """Require each static counter name to map into the event taxonomy."""

    name = "event-metric-parity"
    summary = "every registry counter name maps to an event type or allowlist"
    invariant = (
        "the event stream can reconstruct every published total "
        "(repro.obs.replay cross-check); counters without events drift "
        "unverifiably"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        events = project.find("obs.events")
        if events is None:
            return  # tree under lint has no event taxonomy to check against
        kinds, fields = _event_taxonomy(events)
        for module in project.modules:
            if module is events or any(
                module.module.endswith(suffix) for suffix in SKIP_MODULE_SUFFIXES
            ):
                continue
            if not (
                module.module == "repro"
                or module.module.startswith("repro.")
                or ".repro." in module.module
            ):
                # Only production counters must mirror the event taxonomy;
                # tests and scripts register synthetic names freely.
                continue
            imports = ImportMap(module.tree)
            constants = module_constants(module.tree)
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REGISTRY_METHODS
                    and node.args
                ):
                    continue
                name, is_prefix = literal_str_prefix(node.args[0], constants)
                if name is None:
                    continue  # dynamic name; nothing static to check
                if _allowlisted(name) or (
                    is_prefix
                    and any(
                        entry.endswith(":") and entry.startswith(name)
                        for entry in PARITY_ALLOWLIST
                    )
                ):
                    continue
                if _matches_taxonomy(name, is_prefix, kinds, fields):
                    continue
                spelled = name + ("…" if is_prefix else "")
                yield Finding(
                    rule=self.name,
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"counter {spelled!r} has no matching event type in "
                        "obs/events.py (no kind or field segment matches); "
                        "add an event, or an allowlist entry with "
                        "justification in repro/lint/rules/parity.py"
                    ),
                )
