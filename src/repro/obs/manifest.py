"""Run manifests: everything needed to reproduce a published number.

A :class:`RunManifest` is a small JSON document written alongside every
report/CSV/event-log artifact.  It pins the *provenance* of a run: the
full scenario configuration, the master seed, the package version and git
revision that produced it, the host and wall time, and (when profiling
was on) the phase-profiler table.  Any BENCH/EXPERIMENTS number can then
be regenerated from its artifact alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import time
from collections import Counter
from pathlib import Path
from typing import Any


def _json_default(obj: Any):
    """Serialise the config types JSON does not know natively."""
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, Counter):
        return dict(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, Path):
        return str(obj)
    return repr(obj)


def package_version() -> str:
    """The installed ``repro`` package version (``"unknown"`` if odd)."""
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - partial-import edge
        return "unknown"


def git_revision() -> str | None:
    """The repository HEAD revision, or ``None`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    rev = result.stdout.strip()
    return rev or None


def scenario_to_dict(config) -> dict:
    """A :class:`~repro.sim.runner.ScenarioConfig` (or any dataclass) as
    plain JSON-ready data."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw = dataclasses.asdict(config)
    elif isinstance(config, dict):
        raw = dict(config)
    else:
        raise TypeError(
            f"scenario must be a dataclass or dict, got {type(config).__name__}"
        )
    # Round-trip through JSON so frozensets etc. become lists now, not at
    # write time -- the manifest dict is then inspectable as-is.
    return json.loads(json.dumps(raw, default=_json_default))


_canonical_encoder = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_json_default
)


def canonical_json(payload: Any) -> str:
    """The one canonical JSON spelling of a payload: sorted keys, compact
    separators, :func:`_json_default` for dataclasses/frozensets.  Every
    content hash in the repo (:func:`fingerprint`, the campaign store's
    record checksums) is taken over this text."""
    return _canonical_encoder.encode(payload)


def fingerprint_canonical(canonical: str, *, length: int = 20) -> str:
    """:func:`fingerprint` of a payload already in :func:`canonical_json`
    form (callers that assemble the canonical text from cached parts)."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


def fingerprint(payload: Any, *, length: int = 20) -> str:
    """A stable content hash of any JSON-serialisable payload.

    Canonicalises through the same JSON encoding the manifests use
    (sorted keys, :func:`_json_default` for dataclasses/frozensets), so
    two payloads hash equal exactly when their manifests would be
    byte-identical.  The campaign store keys cached runs on
    ``fingerprint({config, seed, n_slots, code_version, ...})``: any
    change to the scenario, the seed derivation, or the package version
    yields a new key and forces a re-run instead of serving stale
    results.
    """
    return fingerprint_canonical(canonical_json(payload), length=length)


@dataclasses.dataclass
class RunManifest:
    """Provenance record of one simulation run (or sweep row)."""

    #: Unix timestamp the manifest was collected at.
    created_unix_s: float
    package_version: str
    git_rev: str | None
    host: str
    platform: str
    python: str
    #: Full scenario configuration (JSON-ready dict), when known.
    scenario: dict | None = None
    master_seed: int | None = None
    n_slots: int | None = None
    #: Real (host) wall-clock seconds the run took.
    elapsed_s: float | None = None
    #: Headline report totals, for cross-checking against the artifact.
    report: dict | None = None
    #: Phase-profiler table (:meth:`~repro.sim.profiling.PhaseProfiler.summary`).
    profile: dict | None = None
    #: Observability registry snapshot (:meth:`~repro.obs.registry.MetricRegistry.as_dict`).
    registry: dict | None = None
    #: Free-form extras (e.g. the CLI argv, artifact paths).
    extra: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        scenario=None,
        master_seed: int | None = None,
        n_slots: int | None = None,
        report=None,
        profiler=None,
        registry=None,
        elapsed_s: float | None = None,
        extra: dict | None = None,
    ) -> "RunManifest":
        """Gather a manifest from live objects (all optional)."""
        report_summary = None
        if report is not None:
            report_summary = {
                "slots_simulated": report.slots_simulated,
                "wall_time_s": report.wall_time_s,
                "released": report.total_released,
                "delivered": report.total_delivered,
                "missed": report.total_missed,
                "dropped": report.total_dropped,
                "fault_events": dict(report.availability_stats.fault_events),
                "recoveries": report.availability_stats.recoveries,
            }
        return cls(
            created_unix_s=time.time(),
            package_version=package_version(),
            git_rev=git_revision(),
            host=platform.node(),
            platform=platform.platform(),
            python=platform.python_version(),
            scenario=(
                scenario_to_dict(scenario) if scenario is not None else None
            ),
            master_seed=master_seed,
            n_slots=n_slots,
            elapsed_s=elapsed_s,
            report=report_summary,
            profile=profiler.summary() if profiler is not None else None,
            registry=registry.as_dict() if registry is not None else None,
            extra=dict(extra) if extra else {},
        )

    def to_dict(self) -> dict:
        """The manifest as a JSON-ready dict."""
        return dataclasses.asdict(self)

    def write(self, path: str | Path) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.write_text(
            json.dumps(
                self.to_dict(), indent=2, sort_keys=True, default=_json_default
            )
            + "\n"
        )
        return path

    @classmethod
    def read(cls, path: str | Path) -> dict:
        """Load a manifest file back as a plain dict (schema-tolerant)."""
        return json.loads(Path(path).read_text())


def manifest_path_for(artifact: str | Path) -> Path:
    """The conventional manifest path next to an artifact:
    ``<artifact>.manifest.json``."""
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + ".manifest.json")
