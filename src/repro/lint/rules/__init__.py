"""Built-in repo-specific rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Each module groups the rules guarding one
family of invariants; docs/LINTING.md is the human-facing catalogue.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    async_safety,
    frozen,
    parity,
    seed_provenance,
    serialization,
    wallclock,
)
