"""Schedulability analysis: Equations (5)/(6) and the exact EDF test.

Two time domains appear in the paper, and keeping them straight is the
key to the analysis:

* the **slot domain**: the network transmits exactly one guaranteed
  message-slot per slot (Section 5), so global EDF over connections whose
  periods are *counted in slots* is the classic uniprocessor problem --
  feasible iff total utilisation <= 1;
* the **wall-clock domain**: slots are separated by the variable
  hand-over gap, so a wall-clock period of ``P`` seconds is only
  guaranteed to contain ``floor(P / (t_slot + t_handover_max))`` slots.
  Requiring slot-domain feasibility after this pessimistic conversion is
  *exactly* Equation (5) with the Equation (6) bound:

      sum(e_i * t_slot / P_i_seconds) <= t_slot / (t_slot + t_handover_max)
                                       = U_max.

This module provides both views plus the processor-demand (demand-bound
function) test, which is exact for the paper's deadline = period model
and extends it to constrained deadlines (deadline < period).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from repro.core.connection import LogicalRealTimeConnection
from repro.core.timing import NetworkTiming


def slot_domain_utilisation(
    connections: Iterable[LogicalRealTimeConnection],
) -> float:
    """``sum(e_i / P_i)`` with periods counted in slots."""
    return sum(c.utilisation for c in connections)


def slots_for_wall_period(period_s: float, timing: NetworkTiming) -> int:
    """Guaranteed number of completed slots in ``period_s`` of wall time.

    The pessimistic conversion behind Equation (5): every slot is assumed
    to suffer the worst hand-over gap.
    """
    if period_s <= 0:
        raise ValueError(f"period must be positive, got {period_s}")
    worst_slot_pace = timing.slot_length_s + timing.max_handover_time_s
    return int(period_s / worst_slot_pace)


def wall_clock_connection(
    source: int,
    destinations: frozenset[int],
    period_s: float,
    message_bytes: int,
    timing: NetworkTiming,
    phase_slots: int = 0,
) -> LogicalRealTimeConnection:
    """Build a slot-domain connection from wall-clock requirements.

    ``message_bytes`` is rounded up to whole slots; ``period_s`` is
    converted with the guaranteed (pessimistic) slot pace so that meeting
    the slot-domain deadline implies meeting the wall-clock one under
    *any* sequence of hand-over gaps.
    """
    if message_bytes < 1:
        raise ValueError(f"message size must be >= 1 byte, got {message_bytes}")
    size_slots = -(-message_bytes // timing.slot_payload_bytes)
    period_slots = slots_for_wall_period(period_s, timing)
    if period_slots < size_slots:
        raise ValueError(
            f"a {message_bytes}-byte message ({size_slots} slots) cannot be "
            f"guaranteed within {period_s} s ({period_slots} guaranteed slots)"
        )
    return LogicalRealTimeConnection(
        source=source,
        destinations=destinations,
        period_slots=period_slots,
        size_slots=size_slots,
        phase_slots=phase_slots,
    )


def wall_clock_feasible(
    specs: Sequence[tuple[float, int]], timing: NetworkTiming
) -> bool:
    """Equation (5) in its wall-clock form.

    ``specs`` is a sequence of ``(period_s, message_bytes)`` pairs.
    Feasible iff ``sum(e_i * t_slot / P_i) <= U_max``.
    """
    u = 0.0
    for period_s, message_bytes in specs:
        if period_s <= 0 or message_bytes < 1:
            raise ValueError(f"invalid spec ({period_s}, {message_bytes})")
        size_slots = -(-message_bytes // timing.slot_payload_bytes)
        u += size_slots * timing.slot_length_s / period_s
    return u <= timing.u_max


# ----------------------------------------------------------------------
# Exact processor-demand analysis (slot domain)
# ----------------------------------------------------------------------


def hyperperiod(connections: Iterable[LogicalRealTimeConnection]) -> int:
    """Least common multiple of the connection periods (in slots)."""
    h = 1
    for c in connections:
        h = math.lcm(h, c.period_slots)
    return h


def demand_bound_function(
    connections: Iterable[LogicalRealTimeConnection],
    interval_slots: int,
    deadlines: dict[int, int] | None = None,
) -> int:
    """EDF demand bound: slots that *must* complete in any window of
    ``interval_slots`` slots.

    For connection ``i`` with period ``P_i``, size ``e_i`` and relative
    deadline ``D_i`` (default ``P_i``):

        dbf(t) = sum_i max(0, floor((t - D_i) / P_i) + 1) * e_i

    ``deadlines`` optionally overrides relative deadlines per connection
    id (constrained-deadline extension).
    """
    if interval_slots < 0:
        raise ValueError(f"interval must be non-negative, got {interval_slots}")
    demand = 0
    for c in connections:
        d = c.period_slots if deadlines is None else deadlines.get(
            c.connection_id, c.period_slots
        )
        if d < c.size_slots:
            raise ValueError(
                f"connection {c.connection_id}: deadline {d} shorter than "
                f"message size {c.size_slots}"
            )
        if interval_slots >= d:
            demand += ((interval_slots - d) // c.period_slots + 1) * c.size_slots
    return demand


def processor_demand_test(
    connections: Sequence[LogicalRealTimeConnection],
    deadlines: dict[int, int] | None = None,
    supply_slots_per_slot: float = 1.0,
) -> bool:
    """Exact EDF feasibility on the slot-domain resource.

    Checks ``dbf(t) <= supply * t`` at every absolute deadline ``t`` of a
    synchronous release up to the hyperperiod -- but no further than the
    first point past which ``dbf`` provably stays below the supply line:

    * with implicit deadlines (``D = P`` everywhere) the utilisation test
      is exact, and the answer is ``U <= supply``;
    * with ``U < supply``, Baruah, Rosier and Howell's ``L_a = max(D_max,
      sum((P_i - D_i) * U_i) / (supply - U))``: from ``D_max`` on,
      ``dbf(t) <= U * t + sum((P_i - D_i) * U_i)``, which is below
      ``supply * t`` for every ``t >= L_a``;
    * with ``U == supply``, the synchronous busy period (the first ``w >
      0`` with ``supply * w`` equal to the work released in ``[0, w)``):
      a deadline miss of the synchronous schedule falls inside it.

    The check points are walked lazily in deadline order, so memory is
    ``O(n)`` whatever the hyperperiod.  With constrained deadlines the
    test is strictly stronger than the utilisation test.

    ``supply_slots_per_slot`` scales the resource (e.g. a share of slots
    left to real-time traffic).
    """
    if not connections:
        return True
    if not (0 < supply_slots_per_slot <= 1):
        raise ValueError(
            f"supply must be in (0, 1], got {supply_slots_per_slot}"
        )
    # Exact rationals: a float sum of e_i / P_i can round across supply.
    supply = Fraction(supply_slots_per_slot)
    shares = [Fraction(c.size_slots, c.period_slots) for c in connections]
    u = sum(shares, Fraction(0))
    if u > supply:
        return False
    rel = [
        c.period_slots
        if deadlines is None
        else deadlines.get(c.connection_id, c.period_slots)
        for c in connections
    ]
    for c, d in zip(connections, rel):
        if d < c.size_slots:
            raise ValueError(
                f"connection {c.connection_id}: deadline {d} shorter than "
                f"message size {c.size_slots}"
            )
    if all(d == c.period_slots for c, d in zip(connections, rel)):
        return True
    horizon = hyperperiod(connections)
    if u < supply:
        slack = sum(
            (
                (c.period_slots - d) * share
                for c, d, share in zip(connections, rel, shares)
            ),
            Fraction(0),
        )
        horizon = min(horizon, max(max(rel), math.floor(slack / (supply - u))))
    else:
        horizon = min(horizon, _busy_period(connections, supply, horizon))
    # Each connection's absolute deadlines d, d + P, ... merged in order.
    due = [(d, i) for i, d in enumerate(rel) if d <= horizon]
    heapq.heapify(due)
    last = None
    while due:
        t, i = due[0]
        nxt = t + connections[i].period_slots
        if nxt <= horizon:
            heapq.heapreplace(due, (nxt, i))
        else:
            heapq.heappop(due)
        if t == last:
            continue
        last = t
        if demand_bound_function(connections, t, deadlines) > (
            supply_slots_per_slot * t
        ):
            return False
    return True


def _busy_period(
    connections: Sequence[LogicalRealTimeConnection], supply: Fraction, cap: int
) -> int:
    """The synchronous busy period at ``supply``, or ``cap`` if longer:
    the least fixed point of ``w = sum(ceil(w / P_i) * e_i) / supply``."""
    w = sum((Fraction(c.size_slots) for c in connections), Fraction(0)) / supply
    while w < cap:
        nxt = sum(
            (-(-w // c.period_slots) * c.size_slots for c in connections), 0
        ) / supply
        if nxt == w:
            break
        w = nxt
    return min(cap, math.ceil(w))
