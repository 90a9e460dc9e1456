"""Clock hand-over strategies.

The defining novelty of CCR-EDF is *which node clocks the next slot*:

* :class:`EdfHandover` -- the paper's strategy: the node holding the
  globally highest-priority message becomes master.  Because the master's
  clock break is the only point on the ring a transmission cannot cross,
  and the highest-priority message never needs to cross its own source,
  the most urgent message in the system is always feasible -- no priority
  inversion.  The cost: the inter-slot gap varies with the hand-over
  distance ``D`` (Equation 1), between 0 (same master) and ``N - 1`` hops.

* :class:`RoundRobinHandover` -- the baseline strategy of CC-FPR
  (refs [4], [9]): mastership always moves to the next downstream node.
  The gap is constant (one hop), but the master can sit in the path of the
  highest-priority message, preempting it -- the priority inversion that
  makes the worst-case analysis of [5] "pessimistic to such a degree that
  the worst-case analysis is of little use".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.arbitration import ArbitrationResult
from repro.ring.topology import RingTopology


class ClockHandoverStrategy(ABC):
    """Decides the master of slot ``k + 1`` after slot ``k``'s arbitration."""

    @abstractmethod
    def next_master(
        self,
        topology: RingTopology,
        current_master: int,
        result: ArbitrationResult,
    ) -> int:
        """Node that assumes clocking responsibility for the next slot."""


class EdfHandover(ClockHandoverStrategy):
    """CCR-EDF hand-over: mastership follows the highest-priority message.

    "In the following slot, the clocking responsibility is handed over to
    the node that has the highest priority message in that slot.  This may
    be another node or the same as in the previous slot." (Section 2)
    """

    def next_master(
        self,
        topology: RingTopology,
        current_master: int,
        result: ArbitrationResult,
    ) -> int:
        if result.master != current_master:
            raise ValueError(
                f"arbitration result was produced by master {result.master}, "
                f"but the current master is {current_master}"
            )
        return result.hp_node


class RoundRobinHandover(ClockHandoverStrategy):
    """CC-FPR hand-over: mastership always moves one node downstream.

    "In the implementation of distributed clock strategy found in [9] and
    in [4], hand over is always to the next downstream node.  The
    advantage of this is simplicity; the clock hand over time, between
    slots, is constant."
    """

    def next_master(
        self,
        topology: RingTopology,
        current_master: int,
        result: ArbitrationResult,
    ) -> int:
        return topology.downstream(current_master)
