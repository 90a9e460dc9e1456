"""Declarative campaign specifications.

A :class:`Campaign` names an experiment design: a base
:class:`~repro.sim.runner.ScenarioConfig`, axes of parameter overrides
whose Cartesian product spans the design space, a replication count, and
the slot budget per run.  The spec is a plain value -- hashable,
JSON-round-trippable -- so the same campaign can be launched from
Python, from a committed JSON file, or resumed weeks later against the
same on-disk store (see :mod:`repro.campaign.store`).

Axes override either scenario fields (``protocol``, ``n_nodes``,
``drop_late``, ...), workload fields of the per-run random workload
(``utilisation``, ``n_connections``, ...), or the special axis
``n_slots``.  Axis order is significant: the grid expands in
row-major order over the axes as declared, which fixes run indices,
seeds, and therefore the cache keys of every run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.connection import LogicalRealTimeConnection
from repro.core.policy import POLICIES
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import ENGINES, PROTOCOLS, ScenarioConfig, make_timing
from repro.traffic.sweeps import WORKLOAD_PROFILES

if TYPE_CHECKING:  # pragma: no cover - grid imports spec
    from repro.campaign.grid import RunSpec


@dataclass(frozen=True)
class WorkloadSpec:
    """Random periodic workload drawn fresh from each run's seed.

    Replications of a grid point share these parameters but draw
    independent connection sets (and arrival noise) from their own
    seeds, so replicated campaign metrics average over workload
    randomness the way :func:`repro.sim.batch.replicate` does.
    """

    #: Number of periodic connections in the set.
    n_connections: int = 12
    #: Target total utilisation the set is drawn at.
    utilisation: float = 0.7
    #: Log-uniform period range in slots.
    period_min: int = 10
    period_max: int = 200
    #: Generator family (see
    #: :data:`repro.traffic.sweeps.WORKLOAD_PROFILES`): ``"uniform"``
    #: (implicit deadlines), ``"industrial"`` (a ``tight_fraction``
    #: share of constrained-deadline sensor connections), or
    #: ``"ama-andam"`` (the fixed four-sensor case-study suite).
    profile: str = "uniform"
    #: Share of connections given tight deadlines (industrial profile).
    tight_fraction: float = 0.5
    #: Relative deadline as a fraction of the period for tight
    #: connections (industrial profile).
    tight_deadline_ratio: float = 0.4

    def __post_init__(self) -> None:
        if self.n_connections < 1:
            raise ValueError(
                f"need at least one connection, got {self.n_connections}"
            )
        if not 0.0 < self.utilisation < math.inf:
            raise ValueError(
                f"utilisation must be finite and positive, got {self.utilisation}"
            )
        if not 1 <= self.period_min <= self.period_max:
            raise ValueError(
                f"bad period range [{self.period_min}, {self.period_max}]"
            )
        if self.profile not in WORKLOAD_PROFILES:
            raise ValueError(
                f"unknown workload profile {self.profile!r}; "
                f"choose from {WORKLOAD_PROFILES}"
            )
        if not 0.0 <= self.tight_fraction <= 1.0:
            raise ValueError(
                f"tight_fraction must be in [0, 1], got {self.tight_fraction}"
            )
        if not 0.0 < self.tight_deadline_ratio <= 1.0:
            raise ValueError(
                "tight_deadline_ratio must be in (0, 1], "
                f"got {self.tight_deadline_ratio}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a run that fails or hangs.

    These are *host-side* knobs: they bound wall-clock behaviour
    (attempts, backoff, timeouts) without ever entering the run's cache
    key -- a run's **result** is a pure function of the spec no matter
    how many attempts it took to obtain.  Backoff jitter is derived from
    the run's own :class:`numpy.random.SeedSequence` (see
    :func:`repro.campaign.executor.backoff_delay`), so even the retry
    *timeline* is reproducible for a given spec.
    """

    #: Attempts per run before it is quarantined (>= 1).
    max_attempts: int = 3
    #: First retry delay in seconds; doubles per subsequent attempt.
    backoff_base_s: float = 0.5
    #: Ceiling on the (pre-jitter) backoff delay.
    backoff_max_s: float = 30.0
    #: Fraction of the delay randomised away (0 = none, 1 = full range);
    #: the draw is seeded from the run's entropy, hence deterministic.
    jitter: float = 0.5
    #: Per-attempt wall-clock budget in seconds (``None`` = unbounded).
    #: Enforced only by the sharded executor, which can kill a hung
    #: worker; the in-process serial path cannot preempt a run.
    run_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"need at least one attempt, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.run_timeout_s is not None and not self.run_timeout_s > 0:
            raise ValueError(
                f"run_timeout_s must be positive, got {self.run_timeout_s}"
            )


#: Scenario fields an axis may override.  ``connections`` and
#: ``fault_config`` are compound values that belong in the base config,
#: not on an axis.
SCENARIO_AXES = frozenset(
    f.name for f in dataclasses.fields(ScenarioConfig)
) - {"connections", "fault_config"}

#: Workload fields an axis may override (requires a workload spec).
WORKLOAD_AXES = frozenset(f.name for f in dataclasses.fields(WorkloadSpec))

#: The non-config axis: per-run slot budget.
SPECIAL_AXES = frozenset({"n_slots"})


@dataclass(frozen=True)
class Campaign:
    """A declarative multi-scenario sweep.

    Parameters
    ----------
    name:
        Campaign identifier; used for the default store directory and
        recorded in every artifact.
    base:
        The scenario every grid point starts from.
    n_slots:
        Slots per run (overridable through an ``n_slots`` axis).
    axes:
        Mapping (or sequence of pairs) from axis name to the values it
        sweeps.  The grid is the Cartesian product in declaration
        order.
    workload:
        Optional per-run random workload; required when any axis
        targets a workload field.  When present it *replaces* the base
        scenario's connections.
    n_replications:
        Independent replications per grid point (>= 1).
    master_seed:
        Root of the deterministic per-run seed derivation.
    retry:
        Host-side failure handling (attempts, backoff, timeout); never
        part of any run's cache key.
    engine:
        Simulation engine for every run (``"python"`` or ``"vector"``);
        ``None`` follows the ``REPRO_ENGINE`` environment default.  Like
        ``retry`` this is a host-side execution knob, never part of any
        run's cache key: both engines are bit-identical by contract.
    """

    name: str
    base: ScenarioConfig
    n_slots: int
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    workload: WorkloadSpec | None = None
    n_replications: int = 1
    master_seed: int = 0
    retry: RetryPolicy = RetryPolicy()
    engine: str | None = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"bad campaign name {self.name!r}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.n_slots < 0:
            raise ValueError(f"slot count must be >= 0, got {self.n_slots}")
        if self.n_replications < 1:
            raise ValueError(
                f"need at least one replication, got {self.n_replications}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        axes = tuple(
            (str(name), tuple(values)) for name, values in axes
        )
        object.__setattr__(self, "axes", axes)
        seen: set[str] = set()
        for axis, values in axes:
            if axis in seen:
                raise ValueError(f"duplicate axis {axis!r}")
            seen.add(axis)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            if axis in WORKLOAD_AXES and axis not in SCENARIO_AXES:
                if self.workload is None:
                    raise ValueError(
                        f"axis {axis!r} overrides the workload, but the "
                        "campaign declares no WorkloadSpec"
                    )
            elif axis not in SCENARIO_AXES and axis not in SPECIAL_AXES:
                known = sorted(SCENARIO_AXES | WORKLOAD_AXES | SPECIAL_AXES)
                raise ValueError(
                    f"unknown axis {axis!r}; choose from {known}"
                )
            if axis == "protocol":
                for v in values:
                    if v not in PROTOCOLS:
                        raise ValueError(
                            f"axis 'protocol' value {v!r} not in {PROTOCOLS}"
                        )
            if axis == "policy":
                for v in values:
                    if v not in POLICIES:
                        raise ValueError(
                            f"axis 'policy' value {v!r} not in {POLICIES}"
                        )
            if axis == "profile":
                for v in values:
                    if v not in WORKLOAD_PROFILES:
                        raise ValueError(
                            f"axis 'profile' value {v!r} not in "
                            f"{WORKLOAD_PROFILES}"
                        )
            if axis == "n_slots":
                for v in values:
                    if int(v) < 0:
                        raise ValueError(
                            f"axis 'n_slots' value {v!r} must be >= 0"
                        )
        # Every grid point must lie in the model's domain: a deterministic
        # configuration error fails the load, instead of being spent as
        # retries by each of its runs.  (Imported here: grid imports spec.)
        from repro.campaign.grid import expand_grid

        for point in expand_grid(self):
            make_timing(point.config)

    # ------------------------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        """Axis names in declaration (= expansion) order."""
        return tuple(name for name, _ in self.axes)

    @property
    def grid_size(self) -> int:
        """Number of grid points (product of axis lengths)."""
        return math.prod(len(values) for _, values in self.axes) if self.axes else 1

    @property
    def total_runs(self) -> int:
        """Grid points times replications."""
        return self.grid_size * self.n_replications

    @cached_property
    def runs(self) -> tuple[RunSpec, ...]:
        """Every run of the campaign in report order, expanded once per
        campaign object (see :func:`repro.campaign.grid.expand_runs`).

        The campaign is frozen, so its expansion never changes; sharing
        it shares each spec's cached run key, which the cold run, the
        report and the resume scan would otherwise each recompute.  The
        cache lives on this object, not in a table keyed by equality:
        equal campaigns can still differ in an axis value's type
        (``1`` and ``1.0``), which their keys do not.
        """
        from repro.campaign.grid import RunSpec, expand_grid

        return tuple(
            RunSpec(
                point=point,
                replication=replication,
                master_seed=self.master_seed,
                engine=self.engine,
            )
            for point in expand_grid(self)
            for replication in range(self.n_replications)
        )

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON-ready dict (inverse of :meth:`from_dict`)."""
        from repro.obs.manifest import scenario_to_dict

        return {
            "name": self.name,
            "n_slots": self.n_slots,
            "replications": self.n_replications,
            "seed": self.master_seed,
            "base": scenario_to_dict(self.base),
            "workload": (
                dataclasses.asdict(self.workload)
                if self.workload is not None
                else None
            ),
            "axes": [[name, list(values)] for name, values in self.axes],
            "retry": dataclasses.asdict(self.retry),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Campaign":
        """Build a campaign from :meth:`to_dict` output / a JSON spec.

        ``axes`` accepts both the mapping form (``{"protocol": [...]}``,
        the natural hand-written spelling) and the order-preserving
        pair-list form ``[["protocol", [...]], ...]`` that
        :meth:`to_dict` emits.
        """
        known = {"name", "n_slots", "replications", "seed", "base",
                 "workload", "axes", "retry", "engine"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        base_raw = dict(raw.get("base") or {})
        conns = base_raw.pop("connections", None)
        if conns:
            base_raw["connections"] = tuple(
                _connection_from_dict(c) for c in conns
            )
        fault_raw = base_raw.pop("fault_config", None)
        if fault_raw:
            if "immortal_nodes" in fault_raw:
                fault_raw = dict(fault_raw)
                fault_raw["immortal_nodes"] = frozenset(
                    fault_raw["immortal_nodes"]
                )
            base_raw["fault_config"] = FaultConfig(**fault_raw)
        if "n_nodes" not in base_raw:
            raise ValueError("campaign base must declare n_nodes")
        base = ScenarioConfig(**base_raw)
        workload = raw.get("workload")
        if workload is not None:
            workload = WorkloadSpec(**workload)
        axes = raw.get("axes") or ()
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        else:
            axes = tuple((name, tuple(values)) for name, values in axes)
        retry_raw = raw.get("retry")
        retry = (
            RetryPolicy(**retry_raw) if retry_raw is not None else RetryPolicy()
        )
        return cls(
            name=raw["name"],
            base=base,
            n_slots=int(raw["n_slots"]),
            axes=axes,
            workload=workload,
            n_replications=int(raw.get("replications", 1)),
            master_seed=int(raw.get("seed", 0)),
            retry=retry,
            engine=raw.get("engine"),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Campaign":
        """Load a campaign spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _connection_from_dict(raw: Mapping[str, Any]) -> LogicalRealTimeConnection:
    """Rebuild a connection from its JSON form (manifest convention)."""
    kwargs = dict(raw)
    kwargs["destinations"] = frozenset(kwargs["destinations"])
    return LogicalRealTimeConnection(**kwargs)
