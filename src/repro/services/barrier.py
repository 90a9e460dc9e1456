"""Barrier synchronisation service.

One of the "services for parallel and distributed computer systems"
(Sections 1 and 7; detailed in ref. [11]).  The implementation follows
the natural two-phase pattern on a ring:

1. **gather** -- every participant sends a single-slot arrival message to
   the coordinator;
2. **release** -- once all arrivals are in, the coordinator broadcasts a
   single-slot release message to all participants.

Both phases use the best-effort service (barrier progress is urgent but
not periodic).  The barrier completes, for measurement purposes, when
the release broadcast is delivered.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.priorities import TrafficClass
from repro.services.api import MessageInjector
from repro.sim.engine import Simulation


@dataclass(frozen=True, slots=True)
class BarrierResult:
    """Measured cost of one barrier episode."""

    #: Slot at which the barrier was initiated.
    start_slot: int
    #: Slot at which the release broadcast completed.
    end_slot: int
    #: Number of participants (including the coordinator).
    n_participants: int

    @property
    def slots(self) -> int:
        """Barrier completion time in slots."""
        return self.end_slot - self.start_slot


class BarrierCoordinator:
    """Runs barrier episodes over a running simulation.

    Parameters
    ----------
    sim:
        The simulation to drive.
    injectors:
        One :class:`MessageInjector` per node, already registered as
        simulation sources.
    coordinator:
        Node that gathers arrivals and broadcasts the release.
    deadline_slots:
        Relative deadline given to the barrier's best-effort messages
        (their laxity-mapped priority rises as they age).
    """

    def __init__(
        self,
        sim: Simulation,
        injectors: dict[int, MessageInjector],
        coordinator: int,
        deadline_slots: int = 64,
    ):
        if coordinator not in injectors:
            raise ValueError(f"no injector for coordinator node {coordinator}")
        if deadline_slots < 1:
            raise ValueError(f"deadline must be >= 1 slot, got {deadline_slots}")
        self.sim = sim
        self.injectors = injectors
        self.coordinator = coordinator
        self.deadline_slots = deadline_slots

    def execute(
        self, participants: Iterable[int], max_slots: int = 100_000
    ) -> BarrierResult:
        """Run one barrier over the given participants.

        All participants are assumed to arrive simultaneously (the
        worst case for network contention).  Returns the measured cost;
        raises :class:`TimeoutError` if the barrier does not complete
        within ``max_slots``.
        """
        nodes = sorted(set(participants))
        if self.coordinator not in nodes:
            raise ValueError("the coordinator must be among the participants")
        if len(nodes) < 2:
            raise ValueError("a barrier needs at least 2 participants")
        for node in nodes:
            if node not in self.injectors:
                raise ValueError(f"no injector for participant node {node}")

        start = self.sim.current_slot
        end = start + max_slots  # one budget for both phases

        # Phase 1: gather.  The coordinator's own arrival is local.
        arrivals = [
            self.injectors[node].submit(
                destinations=[self.coordinator],
                traffic_class=TrafficClass.BEST_EFFORT,
                relative_deadline_slots=self.deadline_slots,
            )
            for node in nodes
            if node != self.coordinator
        ]
        if not self.sim.run_until(
            lambda: all(a.delivered for a in arrivals), max_slots
        ):
            raise TimeoutError(
                f"barrier gather phase incomplete after {max_slots} slots"
            )

        # Phase 2: release broadcast to every other participant.
        release = self.injectors[self.coordinator].submit(
            destinations=[n for n in nodes if n != self.coordinator],
            traffic_class=TrafficClass.BEST_EFFORT,
            relative_deadline_slots=self.deadline_slots,
        )
        if not self.sim.run_until(
            lambda: release.delivered, end - self.sim.current_slot
        ):
            raise TimeoutError(
                f"barrier release phase incomplete after {max_slots} slots"
            )

        return BarrierResult(
            start_slot=start,
            end_slot=self.sim.current_slot,
            n_participants=len(nodes),
        )
