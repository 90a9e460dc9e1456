"""Typed requests, replies and rejections of the admission service.

The service protocol is deliberately tiny: a client submits one
:class:`ServiceRequest` naming an operation (:data:`OPS`), the service
serialises it through the designated admission node, and exactly one
:class:`ServiceReply` comes back.  There is no streaming, no partial
state and no silent queueing beyond the bounded request queue -- when
that queue is full, submission fails *immediately* with the typed
:class:`ServiceBackpressure` rejection instead of hanging, which is the
whole point of bounding it.

Like :mod:`repro.obs.events`, this module imports nothing from the rest
of the package except the plain connection value type, so the wire
shapes cannot entangle themselves with engine state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.admission import AdmissionDecision
from repro.core.connection import LogicalRealTimeConnection

#: Operations the service serves, in documentation order: connection
#: set-up/tear-down, a state probe, and the fault-path pair that drives
#: suspend/re-admission for a whole node (PR 1 semantics).
OPS = ("open", "close", "status", "suspend", "resume")


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """One operation submitted to the admission service.

    ``seq`` is assigned by the service at submit time and is unique for
    the service's lifetime; it ties the request to its reply and to the
    ``service_request``/``service_backpressure`` events in the log.
    Exactly one of the payload fields is meaningful per op: ``connection``
    for ``open``, ``connection_id`` for ``close``, ``node`` for
    ``suspend``/``resume``; ``status`` carries no payload.
    """

    seq: int
    op: str
    connection: LogicalRealTimeConnection | None = None
    connection_id: int | None = None
    node: int | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; choose from {OPS}")


@dataclass(frozen=True, slots=True)
class ServiceStatus:
    """Snapshot of the hosted ring taken while serving a request.

    All slot-domain quantities: the served requests are the only writers
    of controller state, so the snapshot is exact, not racy.
    """

    slot: int
    utilisation: float
    u_max: float
    admitted: int
    suspended: int


@dataclass(frozen=True, slots=True)
class ServiceReply:
    """The service's answer to one :class:`ServiceRequest`.

    ``outcome`` is ``"accepted"``, ``"rejected"`` or ``"error"`` (the
    same vocabulary the ``service_request`` event uses, so log replay
    and live replies can be cross-counted).  ``decision`` carries the
    Section 6 admission decision for ``open`` and for each re-admission
    attempted by ``resume`` (the last one); ``slots_used`` the signalling
    cost in ring slots; ``status`` the post-request snapshot;
    ``latency_s`` the host-side submit-to-reply latency and ``error``
    the stringified exception when ``outcome == "error"``.
    """

    seq: int
    op: str
    outcome: str
    status: ServiceStatus
    decision: AdmissionDecision | None = None
    slots_used: int = 0
    latency_s: float = 0.0
    error: str | None = None
    #: Per-connection re-admission decisions of a ``resume`` request.
    resumed: tuple[AdmissionDecision, ...] = field(default=())

    @property
    def accepted(self) -> bool:
        """True iff the operation fully succeeded."""
        return self.outcome == "accepted"


class ServiceBackpressure(Exception):
    """Typed rejection: the bounded request queue is full.

    Raised *synchronously* at submit time -- a full service never takes
    ownership of the request, so the caller can retry, shed load or give
    up without a timeout.  Carries enough to account the rejection.
    """

    def __init__(self, op: str, queue_depth: int, max_depth: int) -> None:
        super().__init__(
            f"admission service queue full ({queue_depth}/{max_depth}); "
            f"{op!r} request rejected (backpressure)"
        )
        self.op = op
        self.queue_depth = queue_depth
        self.max_depth = max_depth


class ServiceClosed(Exception):
    """The service has stopped (or never started); submissions fail fast."""


class ServiceFailed(Exception):
    """The admission worker crashed; an accepted request will never be served.

    Set on the request being served and on every queued one when an
    exception the service does not map to an ``"error"`` reply escapes;
    ``__cause__`` is that exception.  The service is left not running.
    """
