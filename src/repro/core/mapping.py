"""Laxity-to-priority mapping functions.

Section 3: "The time until deadline (referred to as laxity) of a message
is mapped, with a certain function, to be expressed within the limitation
of the priority field ... A shorter laxity of the packet implies a higher
priority of the request.  For the following discussion, a logarithmic
mapping function is assumed.  This mapping gives higher resolution of
laxity, the closer to its deadline a packet gets."

The laxity unit is the *slot* -- the smallest schedulable time unit
(Section 5).  A mapping compresses a laxity (a non-negative integer number
of slots until deadline) into the handful of levels a traffic class owns
in the 5-bit field; the master then schedules by mapped priority, which is
EDF up to the quantisation of the map.  The paper leaves the exact
function open ("further discussion of deadline to priority mapping
function is out of the scope of this paper"); we provide the assumed
logarithmic map plus a linear one so the ablation benchmark (experiment
S8) can quantify the difference.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Hashable
from dataclasses import dataclass
from functools import lru_cache

from repro.core.priorities import TrafficClass, class_priority_range


def _class_range_of(priority: int, traffic_class: TrafficClass) -> tuple[int, int]:
    """The class's ``(lo, hi)`` priority range, which must hold ``priority``."""
    lo_p, hi_p = class_priority_range(traffic_class)
    if not (lo_p <= priority <= hi_p):
        raise ValueError(
            f"priority {priority} outside class range [{lo_p}, {hi_p}]"
        )
    return lo_p, hi_p


class LaxityMapping(ABC):
    """Maps a message laxity in slots to a 5-bit priority level.

    Implementations must be monotone: a shorter laxity never maps to a
    lower priority (property-tested in the suite).
    """

    @abstractmethod
    def priority_for(self, laxity_slots: int, traffic_class: TrafficClass) -> int:
        """Priority level for a message of the given laxity and class.

        ``laxity_slots`` may be negative for an already-late message; late
        messages saturate at the class's most urgent level.
        """

    def bucket_bounds(
        self, priority: int, traffic_class: TrafficClass
    ) -> tuple[int | None, int | None]:
        """Inclusive laxity interval ``(lo, hi)`` mapped to ``priority``.

        ``hi`` is ``None`` for the class's least-urgent level, whose
        bucket is unbounded above.  ``lo`` is ``None`` for the class's
        *most* urgent level: every late (negative-laxity) message
        saturates there per the :meth:`priority_for` contract, so that
        bucket is unbounded below -- it is *not* ``[0, ...]``, which
        this method used to claim.  A level the mapping never produces
        raises ``ValueError``.

        The simulator's fast-forward asks for ``lo`` to know how long a
        waiting request keeps its priority.  This base implementation
        scans the laxity axis from 0, which costs up to the bucket's
        laxity in ``priority_for`` calls; the built-in mappings override
        it with closed forms.
        """
        lo_p, hi_p = _class_range_of(priority, traffic_class)
        if priority == hi_p:
            # The saturation bucket.  Scan only for its upper end; when
            # the class owns a single level (e.g. non-real-time), the
            # bucket is the whole laxity axis.
            if lo_p == hi_p:
                return (None, None)
            hi_end = 0
            while self.priority_for(hi_end + 1, traffic_class) == hi_p:
                hi_end += 1
            return (None, hi_end)
        lo_bound: int | None = None
        laxity = 0
        while True:
            p = self.priority_for(laxity, traffic_class)
            if p == priority and lo_bound is None:
                lo_bound = laxity
            if p < priority:
                if lo_bound is None:
                    raise ValueError(
                        f"priority {priority} is never produced by this mapping"
                    )
                return (lo_bound, laxity - 1)
            if p == lo_p:
                # Reached the terminal (least urgent) bucket.
                if priority == lo_p:
                    if lo_bound is None:
                        lo_bound = laxity
                    return (lo_bound, None)
                if lo_bound is not None:
                    return (lo_bound, laxity - 1)
                raise ValueError(
                    f"priority {priority} is never produced by this mapping"
                )
            laxity += 1


@dataclass(frozen=True)
class LogarithmicMapping(LaxityMapping):
    """The paper's assumed logarithmic map.

    Level ``k`` below the class's most urgent level covers laxities in
    ``[2^k - 1, 2^(k+1) - 2]``: bucket widths double as laxity grows, so
    resolution is finest close to the deadline.  With a 15-level class
    range the map distinguishes laxities out to ``2^15 - 2`` slots before
    saturating at the least-urgent level.
    """

    def priority_for(self, laxity_slots: int, traffic_class: TrafficClass) -> int:
        lo, hi = class_priority_range(traffic_class)
        if laxity_slots <= 0:
            return hi
        bucket = int(math.log2(laxity_slots + 1))
        return max(lo, hi - bucket)

    def bucket_bounds(
        self, priority: int, traffic_class: TrafficClass
    ) -> tuple[int | None, int | None]:
        """Closed form of the base-class scan: level ``k = hi - priority``
        covers ``[2^k - 1, 2^(k+1) - 2]``, the most urgent level is
        ``(None, 0)`` and the least urgent ``(2^k - 1, None)``."""
        lo_p, hi_p = _class_range_of(priority, traffic_class)
        k = hi_p - priority
        if k == 0:
            return (None, None if lo_p == hi_p else 0)
        start = (1 << k) - 1
        return (start, None if priority == lo_p else 2 * start)


@dataclass(frozen=True)
class LinearMapping(LaxityMapping):
    """Uniform-width buckets over a fixed laxity horizon (ablation).

    All laxities beyond ``horizon_slots`` saturate at the class's least
    urgent level.  Compared with the logarithmic map this wastes levels on
    far-away deadlines and cannot distinguish urgencies near the deadline
    once ``horizon_slots`` is large -- the behaviour experiment S8
    quantifies.
    """

    #: Laxity (in slots) at and beyond which priority saturates low.
    horizon_slots: int = 1024

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ValueError(
                f"laxity horizon must be at least 1 slot, got {self.horizon_slots}"
            )

    def priority_for(self, laxity_slots: int, traffic_class: TrafficClass) -> int:
        lo, hi = class_priority_range(traffic_class)
        if laxity_slots <= 0:
            return hi
        levels = hi - lo + 1
        bucket = laxity_slots * levels // self.horizon_slots
        return max(lo, hi - bucket)

    def bucket_bounds(
        self, priority: int, traffic_class: TrafficClass
    ) -> tuple[int | None, int | None]:
        """Closed form of the base-class scan: bucket ``b = hi - priority``
        starts at the first laxity with ``laxity * levels // horizon == b``,
        ``ceil(b * horizon / levels)``; when the horizon is shorter than
        the level count some buckets are empty and never produced."""
        lo_p, hi_p = _class_range_of(priority, traffic_class)
        levels = hi_p - lo_p + 1
        horizon = self.horizon_slots
        b = hi_p - priority
        if b == 0:
            return (None, None if levels == 1 else (horizon - 1) // levels)
        start = -(-b * horizon // levels)
        if priority == lo_p:
            return (start, None)
        end = -(-(b + 1) * horizon // levels) - 1
        if start > end:
            raise ValueError(
                f"priority {priority} is never produced by this mapping"
            )
        return (start, end)


def level_starts(
    mapping: LaxityMapping, traffic_class: TrafficClass
) -> tuple[int | None, ...]:
    """The lower laxity bound of each of the class's levels, most urgent
    first: index ``k`` is the level ``hi - k``.

    Entry 0 is ``None`` (the most urgent level is unbounded below).  A
    level the mapping never produces gets the start of the next, less
    urgent level, so its interval is empty.  The fast tiers read a head's
    priority off this table alone: a laxity ``lax > 0`` maps to ``hi -
    (bisect_right(starts, lax, 1) - 1)``, a laxity ``<= 0`` to ``hi``,
    and the level holds while the laxity stays at or above its start.

    Built from :meth:`LaxityMapping.bucket_bounds` once per hashable
    mapping and class, so equal mappings share one table and a mapping
    relying on the base-class scan pays it once.
    """
    if isinstance(mapping, Hashable):
        return _cached_level_starts(mapping, traffic_class)
    return _build_level_starts(mapping, traffic_class)


def _build_level_starts(
    mapping: LaxityMapping, traffic_class: TrafficClass
) -> tuple[int | None, ...]:
    lo, hi = class_priority_range(traffic_class)
    starts: list[int | None] = [None] * (hi - lo + 1)
    for k in range(hi - lo, 0, -1):
        try:
            starts[k] = mapping.bucket_bounds(hi - k, traffic_class)[0]
        except ValueError:
            if k == hi - lo:
                raise
            starts[k] = starts[k + 1]
    return tuple(starts)


_cached_level_starts = lru_cache(maxsize=64)(_build_level_starts)
