"""Tests for the laxity-to-priority mapping functions."""

import functools
from bisect import bisect_right
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import (
    LaxityMapping,
    LinearMapping,
    LogarithmicMapping,
    level_starts,
)
from repro.core.priorities import TrafficClass, class_priority_range

CLASSES = [TrafficClass.BEST_EFFORT, TrafficClass.RT_CONNECTION]


class SquareStepMapping(LaxityMapping):
    """A custom mapping on the base-class ``bucket_bounds`` scan: two
    levels down per whole square root of the laxity, so every other
    level below the most urgent one is never produced."""

    def __init__(self) -> None:
        self.calls = 0

    def priority_for(self, laxity_slots: int, traffic_class: TrafficClass) -> int:
        self.calls += 1
        lo, hi = class_priority_range(traffic_class)
        if laxity_slots <= 0:
            return hi
        return max(lo, hi - 2 * isqrt(laxity_slots))


#: One shared instance: the table cache keys on it.
SQUARE_STEPS = SquareStepMapping()


class TestLogarithmicMapping:
    def test_zero_laxity_maps_to_most_urgent(self):
        m = LogarithmicMapping()
        for tc in CLASSES:
            _, hi = class_priority_range(tc)
            assert m.priority_for(0, tc) == hi

    def test_negative_laxity_saturates_most_urgent(self):
        m = LogarithmicMapping()
        _, hi = class_priority_range(TrafficClass.RT_CONNECTION)
        assert m.priority_for(-50, TrafficClass.RT_CONNECTION) == hi

    def test_bucket_widths_double(self):
        # Buckets: {0}, {1,2}, {3..6}, {7..14}, ...
        m = LogarithmicMapping()
        tc = TrafficClass.RT_CONNECTION
        _, hi = class_priority_range(tc)
        assert m.priority_for(1, tc) == hi - 1
        assert m.priority_for(2, tc) == hi - 1
        assert m.priority_for(3, tc) == hi - 2
        assert m.priority_for(6, tc) == hi - 2
        assert m.priority_for(7, tc) == hi - 3

    def test_huge_laxity_saturates_least_urgent(self):
        m = LogarithmicMapping()
        for tc in CLASSES:
            lo, _ = class_priority_range(tc)
            assert m.priority_for(10**9, tc) == lo

    def test_resolution_finest_near_deadline(self):
        # The first few buckets are narrower than the later ones.
        m = LogarithmicMapping()
        tc = TrafficClass.RT_CONNECTION
        lo_b, hi_b = m.bucket_bounds(31, tc)
        # Most urgent level: laxity 0, plus the open-ended late
        # (negative-laxity) range it saturates.
        assert (lo_b, hi_b) == (None, 0)
        lo_b2, hi_b2 = m.bucket_bounds(30, tc)
        assert hi_b2 - lo_b2 + 1 == 2
        lo_b3, hi_b3 = m.bucket_bounds(29, tc)
        assert hi_b3 - lo_b3 + 1 == 4

    @given(
        st.integers(min_value=-10, max_value=100_000),
        st.sampled_from(CLASSES),
    )
    def test_priority_stays_in_class_range(self, laxity, tc):
        m = LogarithmicMapping()
        lo, hi = class_priority_range(tc)
        assert lo <= m.priority_for(laxity, tc) <= hi

    @given(
        st.integers(min_value=-10, max_value=100_000),
        st.sampled_from(CLASSES),
    )
    def test_monotone_in_laxity(self, laxity, tc):
        # Shorter laxity never maps to a lower priority.
        m = LogarithmicMapping()
        assert m.priority_for(laxity, tc) >= m.priority_for(laxity + 1, tc)


class TestLinearMapping:
    def test_zero_laxity_maps_to_most_urgent(self):
        m = LinearMapping(horizon_slots=100)
        for tc in CLASSES:
            _, hi = class_priority_range(tc)
            assert m.priority_for(0, tc) == hi

    def test_horizon_saturates_least_urgent(self):
        m = LinearMapping(horizon_slots=100)
        for tc in CLASSES:
            lo, _ = class_priority_range(tc)
            assert m.priority_for(100, tc) == lo
            assert m.priority_for(10_000, tc) == lo

    def test_uniform_bucket_widths(self):
        # 15 levels over horizon 150 -> buckets of width 10.
        m = LinearMapping(horizon_slots=150)
        tc = TrafficClass.RT_CONNECTION
        _, hi = class_priority_range(tc)
        assert m.priority_for(1, tc) == hi
        assert m.priority_for(9, tc) == hi
        assert m.priority_for(10, tc) == hi - 1
        assert m.priority_for(19, tc) == hi - 1
        assert m.priority_for(20, tc) == hi - 2

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            LinearMapping(horizon_slots=0)

    @given(
        st.integers(min_value=-10, max_value=100_000),
        st.sampled_from(CLASSES),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_priority_stays_in_class_range(self, laxity, tc, horizon):
        m = LinearMapping(horizon_slots=horizon)
        lo, hi = class_priority_range(tc)
        assert lo <= m.priority_for(laxity, tc) <= hi

    @given(
        st.integers(min_value=-10, max_value=100_000),
        st.sampled_from(CLASSES),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_monotone_in_laxity(self, laxity, tc, horizon):
        m = LinearMapping(horizon_slots=horizon)
        assert m.priority_for(laxity, tc) >= m.priority_for(laxity + 1, tc)


class TestBucketBounds:
    def test_log_bounds_partition_the_laxity_axis(self):
        m = LogarithmicMapping()
        tc = TrafficClass.BEST_EFFORT
        lo_p, hi_p = class_priority_range(tc)
        expected_next = 0
        for p in range(hi_p, lo_p, -1):
            lo_b, hi_b = m.bucket_bounds(p, tc)
            if p == hi_p:
                # Saturation bucket: unbounded below (late messages).
                assert lo_b is None
            else:
                assert lo_b == expected_next
            assert hi_b is not None and hi_b >= expected_next
            expected_next = hi_b + 1
        lo_b, hi_b = m.bucket_bounds(lo_p, tc)
        assert lo_b == expected_next
        assert hi_b is None  # unbounded terminal bucket

    def test_bounds_of_priority_outside_class_rejected(self):
        m = LogarithmicMapping()
        with pytest.raises(ValueError, match="outside class range"):
            m.bucket_bounds(17, TrafficClass.BEST_EFFORT)

    @given(
        st.sampled_from(
            [LogarithmicMapping(), LinearMapping(horizon_slots=64)]
        ),
        st.sampled_from(list(TrafficClass)),
        st.integers(min_value=-(2**16), max_value=2**16),
    )
    def test_monotone_and_saturating_over_all_classes(self, m, tc, laxity):
        # Covers every traffic class, including the single-level
        # non-real-time band and negative (late) laxities.
        lo_p, hi_p = class_priority_range(tc)
        p = m.priority_for(laxity, tc)
        assert lo_p <= p <= hi_p
        # Monotone: shorter laxity never maps lower.
        assert p >= m.priority_for(laxity + 1, tc)
        # Saturation: every late or due-now message sits at the class's
        # most urgent level...
        if laxity <= 0:
            assert p == hi_p
        # ...and lies inside the saturation bucket bucket_bounds reports.
        lo_b, hi_b = m.bucket_bounds(hi_p, tc)
        assert lo_b is None
        if hi_b is not None and laxity <= hi_b:
            assert p == hi_p

    def test_linear_bounds_match_priority_for(self):
        m = LinearMapping(horizon_slots=45)
        tc = TrafficClass.RT_CONNECTION
        lo_p, hi_p = class_priority_range(tc)
        for p in range(lo_p, hi_p + 1):
            lo_b, hi_b = m.bucket_bounds(p, tc)
            probe_lo = 0 if lo_b is None else lo_b
            assert m.priority_for(probe_lo, tc) == p
            if hi_b is not None:
                assert m.priority_for(hi_b, tc) == p
                assert m.priority_for(hi_b + 1, tc) == p - 1


def _bounds_or_error(bucket_bounds, p, tc):
    try:
        return bucket_bounds(p, tc)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestClosedFormBucketBounds:
    """The built-in mappings' O(1) bounds equal the base-class scan."""

    @pytest.mark.parametrize(
        "mapping",
        [LogarithmicMapping()]
        # Horizons below (1, 7, 14), equal to (15), not divisible by (16,
        # 29, 45, 1024) and divisible by (150, 1500) the 15 levels of a
        # deadline class; 1024 is the default.
        + [
            LinearMapping(horizon_slots=h)
            for h in (1, 7, 14, 15, 16, 29, 45, 150, 1024, 1500)
        ],
        ids=repr,
    )
    def test_equals_the_scan_for_every_class_and_level(self, mapping):
        for tc in TrafficClass:
            lo_p, hi_p = class_priority_range(tc)
            for p in range(lo_p - 1, hi_p + 2):
                closed = _bounds_or_error(mapping.bucket_bounds, p, tc)
                scanned = _bounds_or_error(
                    functools.partial(LaxityMapping.bucket_bounds, mapping), p, tc
                )
                assert closed == scanned, (tc, p)

    def test_short_horizon_levels_are_never_produced(self):
        # 7 slots over 15 levels: bucket = laxity * 15 // 7 skips levels.
        m = LinearMapping(horizon_slots=7)
        tc = TrafficClass.RT_CONNECTION
        _, hi_p = class_priority_range(tc)
        assert m.bucket_bounds(hi_p - 2, tc) == (1, 1)
        with pytest.raises(ValueError, match="never produced"):
            m.bucket_bounds(hi_p - 1, tc)


def _table_priority(mapping, laxity, tc):
    """The priority the fast tiers read off ``level_starts``."""
    _, hi = class_priority_range(tc)
    if laxity <= 0:
        return hi
    return hi - (bisect_right(level_starts(mapping, tc), laxity, 1) - 1)


class TestLevelStarts:
    """The level-start table the fast tiers read reproduces the mapping."""

    @given(
        st.one_of(
            st.just(LogarithmicMapping()),
            # Horizons below 15 leave levels the map never produces.
            st.builds(LinearMapping, st.integers(min_value=1, max_value=2048)),
            st.just(SQUARE_STEPS),
        ),
        st.sampled_from(CLASSES),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_priority_equals_priority_for(self, mapping, tc):
        saturation = level_starts(mapping, tc)[-1]
        for laxity in range(-3, saturation + 4):
            assert _table_priority(mapping, laxity, tc) == mapping.priority_for(
                laxity, tc
            ), laxity

    def test_shape_and_empty_levels(self):
        tc = TrafficClass.RT_CONNECTION
        lo, hi = class_priority_range(tc)
        starts = level_starts(LogarithmicMapping(), tc)
        assert len(starts) == hi - lo + 1
        assert starts[:4] == (None, 1, 3, 7)
        # 7 slots over 15 levels: level hi - 1 is never produced and
        # takes the start of level hi - 2, an empty interval.
        assert level_starts(LinearMapping(horizon_slots=7), tc)[1:3] == (1, 1)
        assert level_starts(LogarithmicMapping(), TrafficClass.NON_REAL_TIME) == (
            None,
        )

    def test_built_once_per_equal_mapping(self):
        tc = TrafficClass.BEST_EFFORT
        assert level_starts(LinearMapping(horizon_slots=99), tc) is level_starts(
            LinearMapping(horizon_slots=99), tc
        )
        mapping = SquareStepMapping()
        level_starts(mapping, tc)
        scanned = mapping.calls
        assert scanned > 0
        level_starts(mapping, tc)
        assert mapping.calls == scanned

    def test_unhashable_mapping_is_built_uncached(self):
        class Unhashable(SquareStepMapping):
            __hash__ = None  # type: ignore[assignment]

        tc = TrafficClass.RT_CONNECTION
        assert level_starts(Unhashable(), tc) == level_starts(SQUARE_STEPS, tc)
