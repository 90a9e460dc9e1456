"""Online centralised admission control (Section 6).

"A specific node in the system is designated to solely handle new logical
real-time connections added to the system and to remove them when
required. ... The set Ma contains the logical real-time connections that
have been tested for feasibility and are accepted.  The admission test is
as follows.  If the utilisation of the logical real-time connections in Ma
together with the new connection is below U_max then the new logical
real-time connection is admitted into Ma. ... If the utilisation of the
new connection and Ma is higher than U_max then the new logical real-time
connection is rejected."

Connections "arrive one at a time at any time, even during run time" and
are assumed well behaved (agreed parameters honoured by the transmitter;
the simulator's per-node release machinery enforces that by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.connection import LogicalRealTimeConnection
from repro.core.timing import NetworkTiming
from repro.obs.events import AdmissionDecided


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one admission test."""

    accepted: bool
    connection: LogicalRealTimeConnection
    #: Utilisation of the accepted set Ma *before* this request.
    utilisation_before: float
    #: Utilisation Ma would have with this connection included.
    utilisation_with: float
    #: The bound the test compares against (Equation 6).
    u_max: float

    @property
    def headroom(self) -> float:
        """Remaining admissible utilisation after the decision took effect."""
        base = self.utilisation_with if self.accepted else self.utilisation_before
        return self.u_max - base


class AdmissionController:
    """The designated admission-control node's logic.

    Holds the accepted set ``Ma`` and applies the Equation (5)/(6) test to
    every arriving request.  Thread-unsafe by design: the paper serialises
    all requests through one node, and the simulator honours that.
    """

    def __init__(self, timing: NetworkTiming) -> None:
        self.timing = timing
        self._accepted: dict[int, LogicalRealTimeConnection] = {}
        self._suspended: dict[int, LogicalRealTimeConnection] = {}
        # Cached total utilisation of Ma; None after any change to it.
        self._utilisation: float | None = None
        #: Optional :class:`~repro.obs.events.EventDispatcher`; set by the
        #: simulator when observability is on.
        self.observer = None
        #: Slot the simulator is processing (stamped each fault-handling
        #: step so admission events carry it); ``None`` outside a run.
        self.current_slot: int | None = None

    def _emit_decision(self, decision: AdmissionDecision, phase: str) -> None:
        if self.observer is not None:
            self.observer.emit(
                AdmissionDecided(
                    slot=self.current_slot,
                    connection_id=decision.connection.connection_id,
                    accepted=decision.accepted,
                    phase=phase,
                    utilisation_with=decision.utilisation_with,
                    u_max=decision.u_max,
                )
            )

    # ------------------------------------------------------------------

    @property
    def accepted_connections(self) -> tuple[LogicalRealTimeConnection, ...]:
        """The current set Ma."""
        return tuple(self._accepted.values())

    @property
    def suspended_connections(self) -> tuple[LogicalRealTimeConnection, ...]:
        """Connections suspended by a node failure, awaiting rejoin."""
        return tuple(self._suspended.values())

    @property
    def utilisation(self) -> float:
        """Total utilisation of Ma.

        Cached between changes to Ma and always recomputed as the same
        in-order sum over the accepted set -- never adjusted by ``+=`` /
        ``-=`` -- because event replay compares this float with ``==``.
        """
        total = self._utilisation
        if total is None:
            total = self._utilisation = sum(
                c.utilisation for c in self._accepted.values()
            )
        return total

    @property
    def u_max(self) -> float:
        """The Equation (6) bound the admission test compares against."""
        return self.timing.u_max

    def request(self, connection: LogicalRealTimeConnection) -> AdmissionDecision:
        """Test a new connection; admit it into Ma iff the test passes."""
        if (
            connection.connection_id in self._accepted
            or connection.connection_id in self._suspended
        ):
            raise ValueError(
                f"connection {connection.connection_id} is already admitted"
            )
        before = self.utilisation
        with_new = before + connection.utilisation
        accepted = with_new <= self.u_max
        if accepted:
            self._accepted[connection.connection_id] = connection
            self._utilisation = None
        decision = AdmissionDecision(
            accepted=accepted,
            connection=connection,
            utilisation_before=before,
            utilisation_with=with_new,
            u_max=self.u_max,
        )
        self._emit_decision(decision, "request")
        return decision

    def remove(self, connection_id: int) -> LogicalRealTimeConnection:
        """Remove a connection (runtime tear-down), returning it.

        Works on admitted and suspended connections alike -- a torn-down
        connection must not come back on node rejoin.
        """
        if connection_id in self._accepted:
            self._utilisation = None
            return self._accepted.pop(connection_id)
        if connection_id in self._suspended:
            return self._suspended.pop(connection_id)
        raise KeyError(
            f"connection {connection_id} is not in the accepted set"
        )

    def is_admitted(self, connection_id: int) -> bool:
        """Whether a connection is currently in the accepted set Ma."""
        return connection_id in self._accepted

    def is_suspended(self, connection_id: int) -> bool:
        """Whether a connection is suspended (owner node down)."""
        return connection_id in self._suspended

    # ------------------------------------------------------------------
    # Fault integration: suspend on node failure, re-admit on rejoin.
    # ------------------------------------------------------------------

    def suspend(self, connection_id: int) -> LogicalRealTimeConnection:
        """Move an admitted connection out of Ma, reclaiming its utilisation.

        Used when the owning node fail-stops: the connection's slots stop
        being consumed, so its share of ``U_max`` becomes available to new
        admission requests until :meth:`resume` re-admits it.
        """
        try:
            conn = self._accepted.pop(connection_id)
        except KeyError:
            raise KeyError(
                f"connection {connection_id} is not in the accepted set"
            ) from None
        self._utilisation = None
        self._suspended[connection_id] = conn
        return conn

    def resume(self, connection_id: int) -> AdmissionDecision:
        """Re-run the admission test for a suspended connection.

        On success the connection re-enters Ma; on failure (its share was
        given away while the node was down) it stays suspended, and the
        caller may retry once utilisation frees up.
        """
        try:
            conn = self._suspended[connection_id]
        except KeyError:
            raise KeyError(
                f"connection {connection_id} is not suspended"
            ) from None
        before = self.utilisation
        with_new = before + conn.utilisation
        accepted = with_new <= self.u_max
        if accepted:
            del self._suspended[connection_id]
            self._accepted[connection_id] = conn
            self._utilisation = None
        decision = AdmissionDecision(
            accepted=accepted,
            connection=conn,
            utilisation_before=before,
            utilisation_with=with_new,
            u_max=self.u_max,
        )
        self._emit_decision(decision, "resume")
        return decision

    def suspend_node(self, node: int) -> tuple[int, ...]:
        """Suspend every admitted connection sourced at ``node``."""
        ids = tuple(
            cid for cid, c in self._accepted.items() if c.source == node
        )
        for cid in ids:
            self.suspend(cid)
        return ids

    def resume_node(self, node: int) -> tuple[AdmissionDecision, ...]:
        """Try to re-admit every suspended connection sourced at ``node``."""
        ids = tuple(
            cid for cid, c in self._suspended.items() if c.source == node
        )
        return tuple(self.resume(cid) for cid in ids)

    def __len__(self) -> int:
        return len(self._accepted)
