"""Flow control: the second half of the reliable-transmission service.

"Support for reliable transmission service (flow control and packet
acknowledgement) is also provided as an intrinsic part of the network"
(Section 1, ref. [4]).  Acknowledgement is modelled in
:mod:`repro.services.reliable`; this module models the flow-control
half: a receiver with finite buffering advertises credit over the
control channel (piggybacked, like acks, at zero data cost), and the
sender never has more unconsumed messages outstanding than the credit
allows.

:class:`WindowedSender` wraps a :class:`~repro.services.api.MessageInjector`
with a sliding window sized by the receiver's buffer;
:class:`ReceiverBuffer` models the consuming side (a finite buffer
drained at a configurable rate).  Because credit returns within one slot
of a buffer slot freeing (the next distribution packet), the model
charges no latency to the credit path itself -- back-pressure emerges
purely from the receiver's consumption rate, which is the physically
meaningful bottleneck.

One credit unit = one message that is either in flight or sitting
unconsumed in the receive buffer.  The invariant the window enforces --
``in_flight + buffer.occupied <= buffer.capacity`` -- is exactly what
makes buffer overrun impossible, and is property-tested.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.priorities import TrafficClass
from repro.services.api import MessageInjector, _Submission
from repro.sim.engine import Simulation


class ReceiverBuffer:
    """A finite receive buffer drained at a fixed rate.

    ``capacity`` messages fit; one message is consumed at every slot
    whose index is a multiple of ``drain_period_slots`` (1 = one per
    slot).
    """

    def __init__(self, capacity: int, drain_period_slots: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if drain_period_slots < 1:
            raise ValueError(
                f"drain period must be >= 1 slot, got {drain_period_slots}"
            )
        self.capacity = capacity
        self.drain_period_slots = drain_period_slots
        self.occupied = 0
        self.consumed = 0
        self._last_drain_slot = -1

    def accept(self) -> None:
        """A message arrived into the buffer."""
        if self.occupied >= self.capacity:
            raise OverflowError(
                "receive buffer overrun: the flow-control window must "
                "prevent this"
            )
        self.occupied += 1

    def drain(self, slot: int) -> int:
        """Consume per the drain schedule; returns messages consumed."""
        if slot <= self._last_drain_slot:
            raise ValueError(
                f"drain stepped backwards: slot {slot} after "
                f"{self._last_drain_slot}"
            )
        period = self.drain_period_slots
        # Consumption opportunities in (last_drain_slot, slot].
        quota = slot // period - self._last_drain_slot // period
        if self._last_drain_slot < 0:
            quota = slot // period + 1  # slot 0 is an opportunity
        self._last_drain_slot = slot
        consumed = min(self.occupied, quota)
        self.occupied -= consumed
        self.consumed += consumed
        return consumed


@dataclass(frozen=True, slots=True)
class _PendingSend:
    size_slots: int
    relative_deadline_slots: int | None
    traffic_class: TrafficClass


class WindowedSender:
    """Sliding-window flow control from one node to one destination.

    Submissions queue locally; at most ``buffer.capacity`` credits'
    worth of them are outstanding (in flight or buffered, unconsumed) at
    any time.  Call :meth:`pump` once per slot, after stepping the
    simulation, to account deliveries into the buffer, drain it, and
    release newly permitted sends.
    """

    def __init__(
        self,
        sim: Simulation,
        injector: MessageInjector,
        destination: int,
        buffer: ReceiverBuffer,
    ):
        if destination == injector.node:
            raise ValueError("cannot open a flow to oneself")
        self.sim = sim
        self.injector = injector
        self.destination = destination
        self.buffer = buffer
        self._backlog: deque[_PendingSend] = deque()
        self._in_flight: list[_Submission] = []
        self.sent = 0
        self.blocked_slots = 0

    # ------------------------------------------------------------------

    def send(
        self,
        size_slots: int = 1,
        relative_deadline_slots: int | None = 100,
        traffic_class: TrafficClass = TrafficClass.BEST_EFFORT,
    ) -> None:
        """Queue one message for flow-controlled transmission."""
        if traffic_class is TrafficClass.RT_CONNECTION:
            raise ValueError(
                "guaranteed traffic is admission-controlled, not "
                "window-controlled"
            )
        self._backlog.append(
            _PendingSend(size_slots, relative_deadline_slots, traffic_class)
        )

    @property
    def outstanding(self) -> int:
        """Credits in use: messages in flight plus buffered unconsumed."""
        return len(self._in_flight) + self.buffer.occupied

    @property
    def backlog(self) -> int:
        """Messages queued locally, waiting for window credit."""
        return len(self._backlog)

    @property
    def window_open(self) -> int:
        """Messages the sender may still put into flight right now."""
        return self.buffer.capacity - self.outstanding

    def pump(self) -> None:
        """One slot's worth of flow-control bookkeeping."""
        slot = self.sim.current_slot
        # 1. Deliveries land in the receive buffer.  Credit was reserved
        #    at submission, so accept() cannot overflow.
        still_flying = []
        for sub in self._in_flight:
            if sub.delivered:
                self.buffer.accept()
            else:
                still_flying.append(sub)
        self._in_flight = still_flying
        # 2. The receiver consumes, freeing credit.
        self.buffer.drain(slot)
        # 3. Release backlog into the open window.
        released_any = False
        while self._backlog and self.window_open > 0:
            item = self._backlog.popleft()
            sub = self.injector.submit(
                [self.destination],
                traffic_class=item.traffic_class,
                size_slots=item.size_slots,
                relative_deadline_slots=item.relative_deadline_slots,
            )
            self._in_flight.append(sub)
            self.sent += 1
            released_any = True
        if self._backlog and not released_any:
            self.blocked_slots += 1
