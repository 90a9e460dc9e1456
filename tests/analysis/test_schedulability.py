"""Tests for the schedulability analysis (Equations 5/6 + exact test)."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.schedulability import (
    demand_bound_function,
    hyperperiod,
    processor_demand_test,
    slot_domain_utilisation,
    slots_for_wall_period,
    wall_clock_connection,
    wall_clock_feasible,
)
from repro.core.connection import LogicalRealTimeConnection
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.traffic.sweeps import random_workload


def conn(period, size, source=0, dst=1):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
    )


@pytest.fixture
def timing():
    return NetworkTiming(
        topology=RingTopology.uniform(8, 10.0), link=FibreRibbonLink()
    )


class TestWallClockConversion:
    def test_pessimistic_slot_count(self, timing):
        pace = timing.slot_length_s + timing.max_handover_time_s
        assert slots_for_wall_period(100 * pace, timing) == 100

    def test_fractional_slots_floored(self, timing):
        pace = timing.slot_length_s + timing.max_handover_time_s
        assert slots_for_wall_period(100.7 * pace, timing) == 100

    def test_invalid_period_rejected(self, timing):
        with pytest.raises(ValueError, match="positive"):
            slots_for_wall_period(0.0, timing)

    def test_wall_clock_connection_construction(self, timing):
        c = wall_clock_connection(
            source=0,
            destinations=frozenset([3]),
            period_s=1e-3,
            message_bytes=4096,
            timing=timing,
        )
        assert c.size_slots == 4  # 4 KiB over 1 KiB slots
        assert c.period_slots == slots_for_wall_period(1e-3, timing)

    def test_unguaranteeable_spec_rejected(self, timing):
        # Message bigger than the guaranteed slots in the period.
        with pytest.raises(ValueError, match="cannot be"):
            wall_clock_connection(
                source=0,
                destinations=frozenset([3]),
                period_s=3e-6,  # ~1 guaranteed slot
                message_bytes=10 * 1024,
                timing=timing,
            )

    def test_equation5_wall_clock_form(self, timing):
        # sum(e_i * t_slot / P_i) <= U_max exactly.
        u_max = timing.u_max
        slot = timing.slot_length_s
        # One connection consuming half of U_max.
        period = 2 * slot / u_max
        assert wall_clock_feasible([(period, 1024)], timing)
        # Three of them exceed the bound.
        assert not wall_clock_feasible([(period, 1024)] * 3, timing)

    def test_wall_clock_guarantee_implies_slot_feasibility(self, timing):
        """A wall-clock-admitted set is slot-domain feasible: the chain
        Eq.(5) -> pessimistic conversion -> U <= 1 holds."""
        specs = [(1e-3, 2048), (5e-4, 1024), (2e-3, 8192)]
        assert wall_clock_feasible(specs, timing)
        conns = [
            wall_clock_connection(0, frozenset([1]), p, b, timing)
            for p, b in specs
        ]
        assert slot_domain_utilisation(conns) <= 1.0
        assert processor_demand_test(conns)


class TestHyperperiod:
    def test_lcm(self):
        assert hyperperiod([conn(4, 1), conn(6, 1)]) == 12

    def test_single(self):
        assert hyperperiod([conn(7, 1)]) == 7


class TestDemandBound:
    def test_zero_interval_zero_demand(self):
        assert demand_bound_function([conn(10, 3)], 0) == 0

    def test_below_first_deadline_no_demand(self):
        assert demand_bound_function([conn(10, 3)], 9) == 0

    def test_at_deadline_full_message(self):
        assert demand_bound_function([conn(10, 3)], 10) == 3

    def test_accumulates_over_periods(self):
        assert demand_bound_function([conn(10, 3)], 30) == 9

    def test_multiple_connections_sum(self):
        conns = [conn(10, 2), conn(5, 1)]
        # t=10: 2 from first, 2 releases of second -> 2 + 2 = 4.
        assert demand_bound_function(conns, 10) == 4

    def test_constrained_deadline_override(self):
        c = conn(10, 3)
        dbf = demand_bound_function([c], 5, deadlines={c.connection_id: 5})
        assert dbf == 3

    def test_deadline_shorter_than_size_rejected(self):
        c = conn(10, 3)
        with pytest.raises(ValueError, match="shorter than"):
            demand_bound_function([c], 10, deadlines={c.connection_id: 2})

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            demand_bound_function([conn(10, 1)], -1)


class TestProcessorDemandTest:
    def test_empty_set_feasible(self):
        assert processor_demand_test([])

    def test_full_utilisation_feasible_with_implicit_deadlines(self):
        # D = P: the utilisation test is exact; U = 1 is schedulable.
        assert processor_demand_test([conn(4, 2), conn(4, 2)])

    def test_over_utilisation_infeasible(self):
        assert not processor_demand_test([conn(4, 3), conn(4, 2)])

    def test_constrained_deadlines_stricter(self):
        c1, c2 = conn(10, 4), conn(10, 4)
        assert processor_demand_test([c1, c2])  # U = 0.8 with D = P
        # Both must finish within 5 slots of release: 8 slots of work
        # into a 5-slot window is impossible.
        deadlines = {c1.connection_id: 5, c2.connection_id: 5}
        assert not processor_demand_test([c1, c2], deadlines=deadlines)

    def test_reduced_supply(self):
        assert processor_demand_test([conn(10, 4)], supply_slots_per_slot=0.5)
        assert not processor_demand_test([conn(10, 6)], supply_slots_per_slot=0.5)

    def test_invalid_supply_rejected(self):
        with pytest.raises(ValueError, match="supply"):
            processor_demand_test([conn(10, 1)], supply_slots_per_slot=0.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50)
    def test_agrees_with_utilisation_test_for_implicit_deadlines(self, specs):
        """With D = P the exact test and the utilisation test coincide."""
        conns = [conn(p, min(s, p)) for p, s in specs]
        u = slot_domain_utilisation(conns)
        assert processor_demand_test(conns) == (u <= 1.0 + 1e-12)


def full_enumeration(connections, deadlines=None, supply_slots_per_slot=1.0):
    """The demand test checking every absolute deadline up to the
    hyperperiod, held in one set: the reference the bounded, lazy
    :func:`processor_demand_test` must agree with (exact utilisation
    pre-check, as there)."""
    if not connections:
        return True
    u = sum(Fraction(c.size_slots, c.period_slots) for c in connections)
    if u > Fraction(supply_slots_per_slot):
        return False
    h = hyperperiod(connections)
    checkpoints = set()
    for c in connections:
        d = c.period_slots if deadlines is None else deadlines.get(
            c.connection_id, c.period_slots
        )
        t = d
        while t <= h:
            checkpoints.add(t)
            t += c.period_slots
    return all(
        demand_bound_function(connections, t, deadlines)
        <= supply_slots_per_slot * t
        for t in sorted(checkpoints)
    )


@st.composite
def demand_cases(draw):
    """Small sets (hyperperiod <= 10^4) with deadlines on both sides of
    the period; ``saturate`` tops the set up to ``U == 1`` exactly."""
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=40),
                st.integers(min_value=1, max_value=40),
                st.floats(min_value=0.0, max_value=1.5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    conns = [conn(p, max(1, min(e, p // 2))) for p, e, _ in specs]
    deadlines = {
        c.connection_id: max(c.size_slots, round(f * c.period_slots))
        for c, (_, _, f) in zip(conns, specs)
    }
    h = hyperperiod(conns)
    assume(h <= 10_000)
    supply = 1.0
    if draw(st.booleans()):
        idle = h - sum(c.size_slots * (h // c.period_slots) for c in conns)
        assume(idle >= 1)
        top = conn(h, idle)
        conns.append(top)
        deadlines[top.connection_id] = h
    else:
        supply = draw(st.sampled_from([1.0, 0.9, 0.75, 0.5]))
    return conns, deadlines, supply


class TestBoundedDemandHorizon:
    def test_seed0_set_with_constrained_deadlines_returns_fast(self):
        conns = random_workload(
            np.random.default_rng(0),
            n_nodes=8,
            n_connections=6,
            utilisation=0.85,
            period_range=(10, 60),
        )
        # Periods 51/53/46/47/60/32: the hyperperiod is 467 510 880
        # slots, far beyond an enumeration of every deadline.
        assert hyperperiod(conns) == 467_510_880
        deadlines = {c.connection_id: c.period_slots - 3 for c in conns}
        start = time.perf_counter()
        assert processor_demand_test(conns, deadlines=deadlines)
        assert processor_demand_test(conns)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize(
        "specs, rel, expected",
        [
            # U == 1 exactly: the busy period bounds the horizon.
            ([(4, 2), (4, 2)], (4, 3), True),
            ([(4, 2), (4, 2)], (3, 3), False),
            ([(4, 1), (6, 3), (12, 3)], (2, 6, 12), True),
            ([(4, 1), (6, 3), (12, 3)], (4, 5, 10), True),
            ([(4, 1), (6, 3), (12, 3)], (4, 3, 5), False),
        ],
    )
    def test_full_utilisation(self, specs, rel, expected):
        conns = [conn(p, e) for p, e in specs]
        deadlines = {c.connection_id: d for c, d in zip(conns, rel)}
        assert processor_demand_test(conns, deadlines=deadlines) is expected
        assert full_enumeration(conns, deadlines) is expected

    @given(demand_cases())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_full_enumeration(self, case):
        conns, deadlines, supply = case
        assert processor_demand_test(
            conns, deadlines=deadlines, supply_slots_per_slot=supply
        ) == full_enumeration(conns, deadlines, supply)
