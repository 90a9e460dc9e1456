"""User-facing messaging API.

:class:`MessageInjector` is the per-node endpoint through which
application code submits individual best-effort and non-real-time
messages into a running simulation (periodic guaranteed traffic comes
from admitted connections instead).  Submissions are released at the
start of the next simulated slot, mirroring hardware where a message
handed to the transceiver enters arbitration at the next collection
phase.

:class:`ConnectionClient` models the runtime connection-management
dialogue of Section 6: requests to open or close a logical real-time
connection travel to the designated admission-control node as
best-effort messages; the decision comes back the same way.  The client
accounts for that round-trip (2 best-effort messages) before a
connection's traffic may start flowing.

The canonical signalling surface is :meth:`ConnectionClient.open_lrtc` /
:meth:`ConnectionClient.close_lrtc`, plus the fault-path pair
:meth:`~ConnectionClient.suspend_node` / :meth:`~ConnectionClient.resume_node`,
matching the async :class:`repro.service.AdmissionClient` verb for verb.
The client is the one place that puts a connection on the ring (an
attached :class:`~repro.traffic.periodic.ConnectionSource`) and takes it
off again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.connection import LogicalRealTimeConnection
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass
from repro.sim.engine import Simulation
from repro.traffic.base import TrafficSource
from repro.traffic.periodic import ConnectionSource


@dataclass
class _Submission:
    destinations: frozenset[int]
    traffic_class: TrafficClass
    size_slots: int
    relative_deadline_slots: int | None
    #: Filled in once the message object is created at release time.
    message: Message | None = None

    @property
    def delivered(self) -> bool:
        return (
            self.message is not None
            and self.message.status is MessageStatus.DELIVERED
        )


def _no_wakeup() -> None:
    """Wake-up hook of an injector no engine has filed yet."""


class MessageInjector(TrafficSource):
    """Per-node endpoint for submitting individual messages.

    Create one per node, pass it to the simulation's sources, then call
    :meth:`submit` at any time; the message is released at the next slot
    boundary.  The returned handle exposes the delivery status.

    The engine polls an injector only while a submission is pending: a
    submit on an empty injector wakes it onto the release calendar for
    the next executed slot, and an empty injector never vetoes the
    fast-forward.
    """

    def __init__(self, node: int):
        self.node = node
        self._pending: list[_Submission] = []
        self._wake: Callable[[], None] = _no_wakeup

    def bind_wakeup(self, wake: Callable[[], None]) -> None:
        self._wake = wake

    def next_release_slot(self, after: int) -> int | None:
        """``after`` while a submission is pending, ``None`` otherwise."""
        return after if self._pending else None

    def submit(
        self,
        destinations: Iterable[int],
        traffic_class: TrafficClass = TrafficClass.BEST_EFFORT,
        size_slots: int = 1,
        relative_deadline_slots: int | None = None,
    ) -> _Submission:
        """Queue a message for release at the next slot.

        Best-effort messages require a relative deadline (their priority
        encodes laxity); non-real-time messages must not carry one.
        """
        if traffic_class is TrafficClass.RT_CONNECTION:
            raise ValueError(
                "guaranteed traffic flows through admitted connections, "
                "not through the injector"
            )
        if traffic_class is TrafficClass.BEST_EFFORT:
            if relative_deadline_slots is None or relative_deadline_slots < 1:
                raise ValueError(
                    "best-effort messages need a positive relative deadline"
                )
        elif relative_deadline_slots is not None:
            raise ValueError("non-real-time messages carry no deadline")
        sub = _Submission(
            destinations=frozenset(destinations),
            traffic_class=traffic_class,
            size_slots=size_slots,
            relative_deadline_slots=relative_deadline_slots,
        )
        was_empty = not self._pending
        self._pending.append(sub)
        if was_empty:
            self._wake()
        return sub

    def messages_for_slot(self, slot: int) -> list[Message]:
        released = []
        for sub in self._pending:
            deadline = (
                slot + sub.relative_deadline_slots
                if sub.relative_deadline_slots is not None
                else None
            )
            msg = Message(
                source=self.node,
                destinations=sub.destinations,
                traffic_class=sub.traffic_class,
                size_slots=sub.size_slots,
                created_slot=slot,
                deadline_slot=deadline,
            )
            sub.message = msg
            released.append(msg)
        self._pending.clear()
        return released


@dataclass(frozen=True)
class SignallingResult:
    """Outcome of one Section 6 connection-management dialogue.

    Open and close report the same shape: the admission decision (always
    present on open; ``None`` on close, which cannot be refused), the
    number of network slots the signalling consumed, and how many
    request/reply round-trips were performed (``0`` when the requesting
    node *is* the admission node, ``1`` otherwise -- each round-trip is
    2 best-effort messages).
    """

    decision: AdmissionDecision | None
    slots_used: int
    round_trips: int

    @property
    def accepted(self) -> bool:
        """True when there is no decision to refuse, or it accepted."""
        return self.decision is None or self.decision.accepted

    @property
    def messages_sent(self) -> int:
        """Best-effort signalling messages the dialogue consumed."""
        return 2 * self.round_trips


class ConnectionClient:
    """Runtime connection set-up/tear-down through the admission node.

    Section 6: a designated node runs admission control; nodes talk to it
    via the best-effort service.  This client sends the request as a
    best-effort message from the connection's source to the admission
    node, applies the admission test on arrival, sends the reply back,
    and only then (on acceptance) activates the connection's periodic
    source.  Tear-down runs the same 2-message dialogue in reverse.

    Drives the supplied simulation while waiting
    (:meth:`~repro.sim.engine.Simulation.run_until`), so the signalling
    cost is measured in real network slots.  :meth:`open_lrtc` and
    :meth:`close_lrtc` are the canonical pair and return a symmetric
    :class:`SignallingResult`.
    """

    #: Relative deadline for signalling messages (best-effort class).
    SIGNALLING_DEADLINE_SLOTS = 64

    def __init__(
        self,
        sim: Simulation,
        controller: AdmissionController,
        admission_node: int,
        injectors: dict[int, MessageInjector],
    ):
        n = sim.topology.n_nodes
        if not (0 <= admission_node < n):
            raise ValueError(
                f"admission node {admission_node} out of range for N={n}"
            )
        self.sim = sim
        self.controller = controller
        self.admission_node = admission_node
        self.injectors = injectors

    def _signal(self, src: int, dst: int, max_slots: int) -> int:
        """One best-effort signalling leg from ``src`` to ``dst``.

        Drives the ring until the leg is delivered; returns the slots it
        took.
        """
        leg = self.injectors[src].submit(
            destinations=[dst],
            traffic_class=TrafficClass.BEST_EFFORT,
            relative_deadline_slots=self.SIGNALLING_DEADLINE_SLOTS,
        )
        start = self.sim.current_slot
        if not self.sim.run_until(lambda: leg.delivered, max_slots):
            raise TimeoutError(
                f"signalling message not delivered within {max_slots} slots"
            )
        return self.sim.current_slot - start

    def _stamped(self) -> AdmissionController:
        """The controller, stamped with the live slot so its admission
        events carry *when* it decided, not ``None``."""
        self.controller.current_slot = self.sim.current_slot
        return self.controller

    def _activate(self, connection: LogicalRealTimeConnection) -> None:
        """Put an admitted connection on the ring: its periodic source
        releases from the next slot on."""
        self.sim.attach_source(
            ConnectionSource(connection, active_from=self.sim.current_slot)
        )

    def open_lrtc(
        self,
        connection: LogicalRealTimeConnection,
        max_wait_slots: int = 10_000,
    ) -> SignallingResult:
        """Request admission of a connection; activate it if accepted.

        Runs the full request/reply dialogue (2 best-effort messages)
        unless the requesting node *is* the admission node, where the
        test is local and costs nothing.
        """
        used = 0
        round_trips = 0
        src = connection.source
        if src != self.admission_node:
            used += self._signal(src, self.admission_node, max_wait_slots)

        decision = self._stamped().request(connection)

        if src != self.admission_node:
            used += self._signal(self.admission_node, src, max_wait_slots)
            round_trips = 1

        if decision.accepted:
            self._activate(connection)
        return SignallingResult(
            decision=decision, slots_used=used, round_trips=round_trips
        )

    def close_lrtc(
        self, connection_id: int, max_wait_slots: int = 10_000
    ) -> SignallingResult:
        """Tear a connection down; the symmetric 2-message dialogue.

        The tear-down request travels to the admission node as a
        best-effort message, the admission set is updated there, the
        connection's periodic source is deactivated, and the
        acknowledgement travels back -- the same round-trip shape as
        :meth:`open_lrtc`, so open and close signalling costs are
        directly comparable.
        """
        connection = self._stamped().remove(connection_id)
        used = 0
        round_trips = 0
        src = connection.source
        if src != self.admission_node:
            used += self._signal(src, self.admission_node, max_wait_slots)
        # Deactivate the periodic source before awaiting the reply, so
        # no guaranteed traffic is released after the request arrived.
        self.sim.detach_connection_source(connection_id)
        if src != self.admission_node:
            used += self._signal(self.admission_node, src, max_wait_slots)
            round_trips = 1
        return SignallingResult(
            decision=None, slots_used=used, round_trips=round_trips
        )

    def suspend_node(self, node: int) -> tuple[int, ...]:
        """Suspend every connection sourced at ``node`` and stop its
        traffic; returns the suspended connection ids.

        Local to the admission node (the failure was observed there), so
        no signalling slots are spent.
        """
        suspended = self._stamped().suspend_node(node)
        for cid in suspended:
            self.sim.detach_connection_source(cid)
        return suspended

    def resume_node(self, node: int) -> tuple[AdmissionDecision, ...]:
        """Re-admit ``node``'s suspended connections in suspension order
        and restart the traffic of each one accepted; returns the
        decisions."""
        resumed = self._stamped().resume_node(node)
        for decision in resumed:
            if decision.accepted:
                self._activate(decision.connection)
        return resumed
