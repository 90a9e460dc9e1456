"""Wall-clock deadline auditing.

The scheduling machinery operates in the slot domain; the user's
contract is in seconds.  Equation (5)'s pessimistic conversion (one slot
guaranteed per ``t_slot + t_handover_max``) promises: a message whose
slot-domain deadline is met has also met the wall-clock deadline

    t_wall = t_release + (deadline_slot - created_slot + 1)
                         * (t_slot + t_handover_max).

The auditor rides along a simulation, records the wall-clock time of
every slot boundary, and verifies that promise for every delivered
message -- closing the loop between the slot-domain simulator and the
second-domain guarantee the application relies on.  It also measures the
*actual* wall-clock slack (how much earlier than the pessimistic bound a
message completed), the quantity that shows how conservative Eq. (5) is
in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.messages import Message, MessageStatus
from repro.sim.engine import Simulation


@dataclass(frozen=True, slots=True)
class WallClockRecord:
    """The wall-clock audit of one delivered message."""

    msg_id: int
    release_time_s: float
    completion_time_s: float
    #: The Eq. (5) pessimistic wall-clock deadline.
    wall_deadline_s: float

    @property
    def latency_s(self) -> float:
        """Wall-clock release-to-completion latency."""
        return self.completion_time_s - self.release_time_s

    @property
    def slack_s(self) -> float:
        """Margin to the pessimistic bound (>= 0 when the promise held)."""
        return self.wall_deadline_s - self.completion_time_s

    @property
    def met(self) -> bool:
        """Whether the pessimistic wall-clock bound was met."""
        return self.completion_time_s <= self.wall_deadline_s + 1e-15


class WallClockAuditor:
    """Steps a simulation while recording slot-boundary wall times.

    Use :meth:`run` instead of ``sim.run``; afterwards, :attr:`records`
    holds one entry per delivered deadline-bearing message.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        timing = sim.timing
        self._worst_pace_s = timing.slot_length_s + timing.max_handover_time_s
        #: Wall time at the *start* of each slot index.
        self._slot_start_s: dict[int, float] = {}
        #: Wall time at the *end* of each slot index.
        self._slot_end_s: dict[int, float] = {}
        self.records: list[WallClockRecord] = []
        self._audited: set[int] = set()
        self._watched: dict[int, Message] = {}

    def run(self, n_slots: int) -> None:
        """Step the simulation ``n_slots`` slots, auditing deliveries."""
        timing = self.sim.timing
        for _ in range(n_slots):
            slot = self.sim.current_slot
            start = self.sim.report.wall_time_s + self.sim.pending_plan.gap_s
            self._slot_start_s[slot] = start
            # Watch every queued live message for delivery.
            for q in self.sim.queues.values():
                for msg in q.pending_messages():
                    if msg.deadline_slot is not None:
                        self._watched.setdefault(msg.msg_id, msg)
            self.sim.step()
            self._slot_end_s[slot] = self.sim.report.wall_time_s
            self._collect()

    def _collect(self) -> None:
        done = []
        for msg_id, msg in self._watched.items():
            if msg.status is MessageStatus.DELIVERED:
                done.append(msg_id)
                if msg_id in self._audited:
                    continue
                self._audited.add(msg_id)
                release = self._slot_start_s.get(msg.created_slot)
                completion = self._slot_end_s.get(msg.completed_slot)
                if release is None or completion is None:
                    continue  # released/completed outside the audit window
                assert msg.deadline_slot is not None
                budget_slots = msg.deadline_slot - msg.created_slot + 1
                self.records.append(
                    WallClockRecord(
                        msg_id=msg_id,
                        release_time_s=release,
                        completion_time_s=completion,
                        wall_deadline_s=release
                        + budget_slots * self._worst_pace_s,
                    )
                )
            elif msg.status is MessageStatus.DROPPED:
                done.append(msg_id)
        for msg_id in done:
            self._watched.pop(msg_id, None)

    # ------------------------------------------------------------------

    @property
    def all_met(self) -> bool:
        """Whether every audited message met its wall-clock bound."""
        return all(r.met for r in self.records)

    def violations(self) -> list[WallClockRecord]:
        """Audited messages that exceeded their wall-clock bound."""
        return [r for r in self.records if not r.met]

    def mean_slack_s(self) -> float:
        """Mean margin to the pessimistic bound across audited messages."""
        if not self.records:
            return float("nan")
        return float(np.mean([r.slack_s for r in self.records]))

    def min_slack_s(self) -> float:
        """Smallest margin to the pessimistic bound observed."""
        if not self.records:
            return float("nan")
        return float(min(r.slack_s for r in self.records))
