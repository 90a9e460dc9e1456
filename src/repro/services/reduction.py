"""Global reduction (all-reduce) service.

The second group-communication service the paper lists (Sections 1 and
7; ref. [11]).  On a unidirectional pipeline ring the natural algorithm
is a **pipelined ring reduction**:

1. **reduce phase** -- the value travels the ring once: each participant
   combines its local contribution into the partial result and forwards
   it to the next participant downstream (``k - 1`` single-slot messages
   for ``k`` participants);
2. **broadcast phase** -- the last participant holds the full result and
   multicasts it back to all others (one message).

Because consecutive hops occupy disjoint segments, step ``i + 1`` of the
reduce phase can ride the spatial reuse left free by other traffic; the
measured cost under background load is exactly what experiment S7
quantifies.  The reduction actually computes the value (with a real
operator) so tests can assert numerical correctness, not just timing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro.core.priorities import TrafficClass
from repro.services.api import MessageInjector
from repro.sim.engine import Simulation


@dataclass(frozen=True, slots=True)
class ReductionResult:
    """Measured cost and computed value of one global reduction."""

    start_slot: int
    end_slot: int
    n_participants: int
    #: The reduced value, combined in ring order.
    value: object

    @property
    def slots(self) -> int:
        """Reduction completion time in slots."""
        return self.end_slot - self.start_slot


class GlobalReduction:
    """Runs pipelined ring reductions over a running simulation."""

    def __init__(
        self,
        sim: Simulation,
        injectors: dict[int, MessageInjector],
        deadline_slots: int = 64,
    ):
        if deadline_slots < 1:
            raise ValueError(f"deadline must be >= 1 slot, got {deadline_slots}")
        self.sim = sim
        self.injectors = injectors
        self.deadline_slots = deadline_slots

    def execute(
        self,
        contributions: Mapping[int, object],
        operator: Callable[[object, object], object],
        max_slots: int = 100_000,
    ) -> ReductionResult:
        """All-reduce ``contributions`` with ``operator``.

        ``contributions`` maps participant node -> local value.  The
        reduction proceeds in ring order starting from the lowest
        participating node id; the final holder broadcasts the result.
        """
        nodes = sorted(contributions.keys())
        if len(nodes) < 2:
            raise ValueError("a reduction needs at least 2 participants")
        for node in nodes:
            if node not in self.injectors:
                raise ValueError(f"no injector for participant node {node}")

        start = self.sim.current_slot
        end = start + max_slots  # one budget for every hop and the broadcast

        # Reduce phase: hop participant -> next participant in id order.
        value = contributions[nodes[0]]
        for i in range(len(nodes) - 1):
            src, dst = nodes[i], nodes[i + 1]
            hop = self.injectors[src].submit(
                destinations=[dst],
                traffic_class=TrafficClass.BEST_EFFORT,
                relative_deadline_slots=self.deadline_slots,
            )
            if not self.sim.run_until(
                lambda: hop.delivered, end - self.sim.current_slot
            ):
                raise TimeoutError(
                    f"reduction hop {src}->{dst} incomplete after "
                    f"{max_slots} slots"
                )
            value = operator(value, contributions[dst])

        # Broadcast phase: the last participant multicasts the result.
        last = nodes[-1]
        others = [n for n in nodes if n != last]
        bcast = self.injectors[last].submit(
            destinations=others,
            traffic_class=TrafficClass.BEST_EFFORT,
            relative_deadline_slots=self.deadline_slots,
        )
        if not self.sim.run_until(
            lambda: bcast.delivered, end - self.sim.current_slot
        ):
            raise TimeoutError(
                f"reduction broadcast incomplete after {max_slots} slots"
            )

        return ReductionResult(
            start_slot=start,
            end_slot=self.sim.current_slot,
            n_participants=len(nodes),
            value=value,
        )
