"""Grid expansion: from a campaign spec to concrete runs.

The expansion is pure and deterministic: the same :class:`Campaign`
always yields the same ordered sequence of :class:`GridPoint` and
:class:`RunSpec` values, which is what makes run indices (and therefore
seeds and store keys) stable across resumes and across machines.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.campaign.spec import (
    SCENARIO_AXES,
    Campaign,
    WorkloadSpec,
)
from repro.obs.manifest import (
    canonical_json,
    fingerprint_canonical,
    package_version,
    scenario_to_dict,
)
from repro.sim.runner import ScenarioConfig

#: Stands where the seed goes while a grid point's share of the key
#: payload is encoded (a string no config or workload value can hold:
#: JSON escapes the NUL bytes).
_SEED_SLOT = "\x00seed\x00"


@dataclass(frozen=True)
class GridPoint:
    """One cell of the campaign grid: a fully resolved scenario.

    ``overrides`` records just the axis values that distinguish this
    point (in axis order), while ``config``/``workload``/``n_slots``
    carry the resolved inputs a run needs.
    """

    #: Position in row-major expansion order (0-based).
    index: int
    #: ``(axis, value)`` pairs in axis declaration order.
    overrides: tuple[tuple[str, Any], ...]
    config: ScenarioConfig
    workload: WorkloadSpec | None
    n_slots: int

    @cached_property
    def key_frame(self) -> tuple[str, str]:
        """The canonical run-key payload of this point, split where the
        seed goes.

        Everything in the key except the seed -- ``config``,
        ``workload``, ``n_slots``, ``code_version`` -- is the same for
        every replication of a grid point, so it is encoded once here
        and :attr:`RunSpec.key` only splices its seed in.
        """
        payload = {
            "config": scenario_to_dict(self.config),
            "workload": (
                dataclasses.asdict(self.workload)
                if self.workload is not None
                else None
            ),
            "n_slots": self.n_slots,
            "seed": _SEED_SLOT,
            "code_version": package_version(),
        }
        # Unpacking into two names insists the slot occurs exactly once.
        head, tail = canonical_json(payload).split(canonical_json(_SEED_SLOT))
        return head, tail


@dataclass(frozen=True)
class RunSpec:
    """One executable run: a grid point plus a replication index.

    ``seed_entropy`` is the run's whole random identity: a
    :class:`numpy.random.SeedSequence` built from it drives workload
    generation and the simulation itself, so the result is a pure
    function of ``(campaign spec, point index, replication)``.

    ``engine`` is the campaign's engine selection, carried along so the
    executor can build the right core; like the retry policy it is a
    host-side knob outside the run's cache key (both engines are
    bit-identical by contract).
    """

    point: GridPoint
    replication: int
    master_seed: int
    engine: str | None = None

    @property
    def seed_entropy(self) -> tuple[int, int, int]:
        """Entropy tuple for this run's :class:`numpy.random.SeedSequence`."""
        return (self.master_seed, self.point.index, self.replication)

    @cached_property
    def key(self) -> str:
        """The run's content-addressed store key (see
        :func:`repro.campaign.store.run_key`, the public spelling),
        computed once per spec: a fingerprint of the point's
        :attr:`~GridPoint.key_frame` with this run's seed spliced in."""
        head, tail = self.point.key_frame
        return fingerprint_canonical(
            head + canonical_json(list(self.seed_entropy)) + tail
        )


def expand_grid(campaign: Campaign) -> list[GridPoint]:
    """All grid points of a campaign, in row-major axis order.

    The last declared axis varies fastest (like nested for-loops over
    the axes as written).  An axis-less campaign yields the single base
    point.
    """
    points: list[GridPoint] = []
    names = campaign.axis_names
    value_lists = [values for _, values in campaign.axes]
    for index, combo in enumerate(itertools.product(*value_lists)):
        overrides = tuple(zip(names, combo))
        config = campaign.base
        workload = campaign.workload
        n_slots = campaign.n_slots
        scenario_changes: dict[str, Any] = {}
        workload_changes: dict[str, Any] = {}
        for axis, value in overrides:
            if axis == "n_slots":
                n_slots = int(value)
            elif axis in SCENARIO_AXES:
                scenario_changes[axis] = value
            else:  # validated as a workload axis by Campaign
                workload_changes[axis] = value
        if scenario_changes:
            config = dataclasses.replace(config, **scenario_changes)
        if workload_changes:
            assert workload is not None  # Campaign.__post_init__ guarantees
            workload = dataclasses.replace(workload, **workload_changes)
        points.append(
            GridPoint(
                index=index,
                overrides=overrides,
                config=config,
                workload=workload,
                n_slots=n_slots,
            )
        )
    return points


def expand_runs(campaign: Campaign) -> Iterator[RunSpec]:
    """Every run of the campaign: grid points x replications, in order.

    Iteration order is the canonical report order: point-major, then
    replication -- the same order a serial uninterrupted execution would
    produce results in.  Every call on one campaign object walks the
    same specs (:attr:`Campaign.runs`), so each run key is computed once
    per process.
    """
    return iter(campaign.runs)
