"""Rule ``no-wallclock-in-sim``: host time must not leak into results.

The simulator is slot-domain: every result-bearing quantity derives
from the slot counter and the seeded RNG, never from the host clock —
that is what makes serial, sharded and resumed campaign runs
bit-identical.  Host-clock reads are confined to the modules whose job
is host-side measurement or provenance:

* ``repro.sim.wallclock``  — the Eq. (5) wall-clock *auditor*;
* ``repro.sim.profiling``  — the phase profiler;
* ``repro.obs.manifest``   — run-manifest timestamps;
* ``repro.cli``            — user-facing elapsed-time prints;
* ``benchmarks/``          — measuring the host is their entire point.

``repro.service.server`` is deliberately *not* on the allowlist: only
its two admission-latency ``perf_counter`` call sites are host-side by
design, and each carries its own justified pragma.  A module-wide
exemption would also have waived any *new* clock read added to the
server — exactly the leak this rule exists to catch.

Anywhere else, a ``time.time()`` / ``perf_counter()`` /
``datetime.now()`` call is a determinism bug waiting to be serialised.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.asthelpers import (
    ImportMap,
    has_dotted_suffix,
    resolve_call_target,
)
from repro.lint.context import ModuleInfo
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

#: Modules allowed to read the host clock (dotted-name suffix match).
ALLOWED_MODULES = (
    "repro.sim.wallclock",
    "repro.sim.profiling",
    "repro.obs.manifest",
    "repro.cli",
)

#: Path components allowed to read the host clock (benchmark scripts
#: measure the host by definition).
ALLOWED_PATH_PARTS = frozenset({"benchmarks"})

#: Fully-qualified callables that read the host clock.
FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class NoWallclockInSim(LintRule):
    """Flag host-clock calls outside the measurement/provenance modules."""

    name = "no-wallclock-in-sim"
    summary = "host-clock reads outside the wallclock/profiling/manifest/cli allowlist"
    invariant = (
        "simulation state is slot-domain only; bit-identical serial vs. "
        "sharded vs. resumed runs (PR 2-4)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if has_dotted_suffix(module.module, *ALLOWED_MODULES):
            return
        if ALLOWED_PATH_PARTS.intersection(module.rel.split("/")):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target in FORBIDDEN_CALLS:
                yield Finding(
                    rule=self.name,
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"host-clock call {target}() outside the wallclock "
                        "allowlist; results must derive from the slot "
                        "counter (move host timing to repro.sim.profiling/"
                        "repro.obs.manifest or pragma with justification)"
                    ),
                )
