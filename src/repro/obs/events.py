"""Typed observability events, sinks, and the engine-facing dispatcher.

Event taxonomy (one dataclass per kind; the ``kind`` field is the JSONL
discriminator):

=================  ====================================================
kind               meaning
=================  ====================================================
``run_header``     first line of a log: ring size, protocol, versions
``slot``           one executed slot (master, gap, transmissions, and
                   the slot's released/delivered/missed/dropped counts)
``handover``       the clock moved to a different master (hop distance)
``fast_forward``   a span of provably idle slots skipped in one step
``fault``          one injected fault occurrence (collection loss,
                   distribution loss, clock glitch)
``recovery``       a designated-node timeout takeover
``node_down``      a node fail-stop transition
``node_up``        a node repair/rejoin (with its purge count)
``admission``      an admission-control decision (request or resume)
``arbitration``    an arbitration round that denied requests at the
                   clock break (emitted by the MAC protocol itself)
``run_retry``      a campaign run attempt failed and was rescheduled
                   with (deterministically jittered) backoff
``run_quarantine`` a campaign run exhausted its attempt budget and was
                   recorded as a structured failure in the store
``pool_rebuild``   the campaign supervisor replaced a broken or hung
                   worker pool and resubmitted the in-flight runs
``store_corrupt``  a cached result failed checksum verification on
                   resume and was scheduled for re-execution
``service_request``  one admission-service request served (open/close/
                   status/suspend/resume), with its outcome, the
                   controller utilisation after it, and the host-side
                   service latency
``service_backpressure``  the admission service refused a request
                   because its bounded queue was full
=================  ====================================================

``run_retry``/``run_quarantine``/``pool_rebuild``/``store_corrupt`` are
*host-side campaign execution* events emitted by the supervising
executor (:mod:`repro.campaign.executor`), not by the simulator: they
never appear in a run's own event log, only in the campaign-level log
(``repro campaign run --events``).  The two ``service_*`` kinds are
likewise host-side, emitted by the live admission service
(:mod:`repro.service.server`) interleaved with the hosted ring's own
simulator events.

Sinks implement :class:`EventSink`; :class:`JsonlEventLog` streams every
event to disk as one JSON object per line (so a million-slot run costs
disk, not memory) and :class:`BoundedEventRing` keeps the last ``N``
events in memory.  :class:`EventDispatcher` fans one emission out to all
sinks and to any subscribed :class:`~repro.sim.trace.SlotTrace`.

This module deliberately imports nothing from the rest of the package:
events carry plain ints/floats/tuples, so the observability layer can
never perturb -- or depend on -- simulation state.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path


class _Event:
    """Base class: ``kind`` discriminator plus dict/JSON conversion."""

    kind: str = ""
    #: Per-class field-name cache (``dataclasses.fields`` is too slow to
    #: call per event on hot paths).
    _names: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        """The event as a JSON-ready dict (``kind`` first)."""
        cls = type(self)
        names = cls._names
        if names is None:
            names = cls._names = tuple(
                f.name for f in fields(self)  # type: ignore[arg-type]
            )
        out: dict = {"kind": self.kind}
        for name in names:
            out[name] = getattr(self, name)
        return out

    def to_json(self) -> str:
        """The event as one compact JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class RunHeader(_Event):
    """First event of a log: enough context to interpret what follows."""

    n_nodes: int
    protocol: str
    slot_length_s: float
    package_version: str

    kind = "run_header"


# Floats repeat heavily on a ring (the hand-over gap takes one of a few
# values per topology), and ``repr(float)`` is a surprisingly large slice
# of per-slot emission cost -- memoise it.  Bounded so a pathological
# stream of distinct floats cannot grow it without limit.
_float_reprs: dict[float, str] = {}


def _frepr(value: float) -> str:
    """Memoised ``repr`` for the small set of recurring gap values."""
    cached = _float_reprs.get(value)
    if cached is None:
        if len(_float_reprs) > 1024:
            _float_reprs.clear()
        cached = _float_reprs[value] = repr(value)
    return cached


@dataclass(slots=True)
class SlotExecuted(_Event):
    """One executed slot.

    The four counters are this slot's *deltas* of the run totals, so
    summing them over a whole log reconstructs the report's
    released/delivered/missed/dropped totals exactly
    (:func:`repro.obs.replay.replay_events` does, and a test asserts it).

    Deliberately *not* frozen: this is the one-per-slot hot event, and a
    frozen dataclass pays ``object.__setattr__`` per field on every
    construction (~7x slower).  Treat instances as immutable anyway.
    """

    slot: int
    master: int
    gap_s: float
    #: ``(node, message id)`` pairs that transmitted this slot.
    transmitted: tuple[tuple[int, int], ...]
    n_requests: int
    released: int
    delivered: int
    missed: int
    dropped: int

    kind = "slot"

    def to_json(self) -> str:
        """Hand-rolled JSON line (:func:`_slot_json`)."""
        return _slot_json(
            self.slot,
            self.master,
            self.gap_s,
            ",".join([f"[{n},{m}]" for n, m in self.transmitted]),
            self.n_requests,
            self.released,
            self.delivered,
            self.missed,
            self.dropped,
        )


def _slot_json(
    slot: int,
    master: int,
    gap_s: float,
    transmitted: str,
    n_requests: int,
    released: int,
    delivered: int,
    missed: int,
    dropped: int,
) -> str:
    """The ``kind="slot"`` JSON line; ``transmitted`` is the pairs' list
    body, ``"[node,msg_id],..."`` (empty when nothing was sent).

    Zero-valued counters and empty transmission lists are omitted
    (replay reads them back with ``.get(..., 0)``), keeping logs of
    mostly idle slots small and emission cheap.  One f-string over the
    optional pieces beats appending them one by one, and the gap repr
    comes from the :func:`_frepr` cache.
    """
    gap = ',"gap_s":' + _frepr(gap_s) if gap_s else ""
    txs = f',"transmitted":[{transmitted}]' if transmitted else ""
    req = f',"n_requests":{n_requests}' if n_requests else ""
    counts = ""
    if released or delivered or missed or dropped:
        if released:
            counts = f',"released":{released}'
        if delivered:
            counts += f',"delivered":{delivered}'
        if missed:
            counts += f',"missed":{missed}'
        if dropped:
            counts += f',"dropped":{dropped}'
    return f'{{"kind":"slot","slot":{slot},"master":{master}{gap}{txs}{req}{counts}}}'


@dataclass(slots=True)
class HandoverOccurred(_Event):
    """The clock moved: ``hops`` link delays of hand-over gap preceded
    ``slot``.  Not frozen for the same hot-path reason as
    :class:`SlotExecuted` (hand-overs happen most slots on a loaded
    ring); treat as immutable."""

    slot: int
    from_node: int
    to_node: int
    hops: int
    gap_s: float

    kind = "handover"

    def to_json(self) -> str:
        return self.json_line(
            self.slot, self.from_node, self.to_node, self.hops, self.gap_s
        )

    @staticmethod
    def json_line(
        slot: int, from_node: int, to_node: int, hops: int, gap_s: float
    ) -> str:
        return (
            f'{{"kind":"handover","slot":{slot}'
            f',"from_node":{from_node},"to_node":{to_node}'
            f',"hops":{hops},"gap_s":'
        ) + _frepr(gap_s) + "}"


@dataclass(frozen=True, slots=True)
class FastForwardSpan(_Event):
    """A run of provably idle slots ``[slot_start, slot_end)`` skipped in
    one step; each skipped slot repeated ``master`` with a zero gap."""

    slot_start: int
    slot_end: int
    n_slots: int
    master: int

    kind = "fast_forward"

    def to_json(self) -> str:
        return self.json_line(
            self.slot_start, self.slot_end, self.n_slots, self.master
        )

    @staticmethod
    def json_line(
        slot_start: int, slot_end: int, n_slots: int, master: int
    ) -> str:
        """Hand-rolled: a loaded ring logs a span every few slots."""
        return (
            f'{{"kind":"fast_forward","slot_start":{slot_start}'
            f',"slot_end":{slot_end},"n_slots":{n_slots},"master":{master}}}'
        )


@dataclass(frozen=True, slots=True)
class FaultInjected(_Event):
    """One injected fault occurrence; ``fault`` matches the kinds of
    :attr:`~repro.sim.metrics.AvailabilityStats.fault_events`."""

    slot: int
    fault: str

    kind = "fault"


@dataclass(frozen=True, slots=True)
class RecoveryPerformed(_Event):
    """A designated-node takeover after the (backed-off) timeout."""

    slot: int
    designated_node: int
    timeout_s: float
    #: 0-based consecutive-attempt index (drives the backoff).
    attempt: int

    kind = "recovery"


@dataclass(frozen=True, slots=True)
class NodeFailed(_Event):
    """A node fail-stop transition (counts as a ``node_failure`` fault)."""

    slot: int
    node: int

    kind = "node_down"


@dataclass(frozen=True, slots=True)
class NodeRejoined(_Event):
    """A node repair/rejoin; ``purged`` stale messages were dropped."""

    slot: int
    node: int
    purged: int

    kind = "node_up"


@dataclass(frozen=True, slots=True)
class AdmissionDecided(_Event):
    """One admission-control decision (initial request or post-rejoin
    resume).  ``slot`` is ``None`` for decisions taken outside a run."""

    slot: int | None
    connection_id: int
    accepted: bool
    #: ``"request"`` for a new connection, ``"resume"`` after a rejoin.
    phase: str
    utilisation_with: float
    u_max: float

    kind = "admission"


@dataclass(slots=True)
class ArbitrationDenied(_Event):
    """An arbitration round denied requests at the clock break (emitted
    by the MAC protocol; ``slot`` is the slot the plan was for).  Not
    frozen -- per-slot under contention; treat as immutable."""

    slot: int
    nodes: tuple[int, ...]

    kind = "arbitration"

    def to_json(self) -> str:
        return self.json_line(self.slot, self.nodes)

    @staticmethod
    def json_line(
        slot: int, nodes: tuple[int, ...]
    ) -> str:
        """Hand-rolled: denials are per-slot events under contention."""
        nodes_s = ",".join(map(str, nodes))
        return f'{{"kind":"arbitration","slot":{slot},"nodes":[{nodes_s}]}}'


@dataclass(frozen=True, slots=True)
class RunRetryScheduled(_Event):
    """A campaign run attempt failed; the run was requeued with backoff.

    ``attempt`` is the 1-based attempt that just failed; ``delay_s`` the
    deterministically-jittered backoff before the next one.
    """

    run_key: str
    attempt: int
    delay_s: float
    error: str

    kind = "run_retry"


@dataclass(frozen=True, slots=True)
class RunQuarantined(_Event):
    """A campaign run exhausted its attempt budget and was quarantined
    (a structured failure document now sits in the store's ``failed/``
    directory under ``run_key``)."""

    run_key: str
    attempts: int
    error: str

    kind = "run_quarantine"


@dataclass(frozen=True, slots=True)
class WorkerPoolRebuilt(_Event):
    """The campaign supervisor replaced its worker pool -- after a
    worker death broke it (``reason="broken"``) or a run overran its
    wall-clock budget and its worker had to be killed
    (``reason="timeout"``) -- and resubmitted ``resubmitted`` in-flight
    runs."""

    resubmitted: int
    reason: str

    kind = "pool_rebuild"


@dataclass(frozen=True, slots=True)
class StoreCorruptionDetected(_Event):
    """A cached run record failed verification during the resume scan
    and was treated as uncached (the re-run's appended record supersedes
    it).  ``path`` names the store's segment file."""

    path: str
    run_key: str

    kind = "store_corrupt"


@dataclass(frozen=True, slots=True)
class ServiceRequestServed(_Event):
    """One admission-service request served by the designated node.

    ``seq`` is the service-wide request sequence number (ties the event
    to the client's :class:`~repro.service.messages.ServiceReply`);
    ``slot`` the hosted ring's slot when the request was served; ``op``
    one of ``open``/``close``/``status``/``suspend``/``resume``;
    ``outcome`` ``accepted``/``rejected``/``error``; ``utilisation`` the
    controller's admitted utilisation *after* the request (the replay
    invariant: folding a log left-to-right must land on the live
    service's final utilisation bit-identically); ``queue_depth`` the
    request-queue occupancy when the request was dequeued and
    ``latency_s`` the host-side submit-to-reply service latency.
    """

    seq: int
    slot: int
    op: str
    outcome: str
    utilisation: float
    queue_depth: int
    latency_s: float

    kind = "service_request"


@dataclass(frozen=True, slots=True)
class ServiceBackpressureApplied(_Event):
    """The admission service refused a request: bounded queue full.

    Explicit backpressure is the service's replacement for an unbounded
    queue (requests never hang); ``seq`` is the refused request's
    sequence number, ``op`` its operation, ``queue_depth`` the occupancy
    observed at submit time (== ``max_depth`` by construction, recorded
    anyway so a log is self-describing).
    """

    seq: int
    op: str
    queue_depth: int
    max_depth: int

    kind = "service_backpressure"


#: The per-slot kinds the engine hands to sinks as raw field values
#: (:meth:`EventSink.emit_fields`); each formats its own ``json_line``.
RawFieldEvent = (
    type[HandoverOccurred] | type[ArbitrationDenied] | type[FastForwardSpan]
)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class EventSink:
    """Destination for a stream of events.  Subclasses override
    :meth:`emit` (and usually :meth:`close`); :meth:`emit_fields` and
    :meth:`emit_slot` have default implementations and only
    performance-critical sinks need their own."""

    def emit(self, event: _Event) -> None:
        """Consume one event."""
        raise NotImplementedError

    def emit_fields(self, cls: RawFieldEvent, values: tuple) -> None:
        """Consume one event given as its class and field values (in
        field order): the engine's per-slot kinds (hand-over, denial,
        span) arrive this way.  The default builds the event."""
        self.emit(cls(*values))

    def emit_slot(
        self,
        slot: int,
        master: int,
        gap_s: float,
        transmitted: tuple,
        n_requests: int,
        released: int,
        delivered: int,
        missed: int,
        dropped: int,
    ) -> None:
        """Consume one executed slot, given the engine's raw fields.

        This is the once-per-slot hot call, so the dispatcher hands the
        slot over in engine terms -- ``transmitted`` holds the planned
        transmissions that sent a packet (``.node``, ``.message.msg_id``)
        -- and lets each sink decide how much work to do: the default
        builds a :class:`SlotExecuted` and funnels it through
        :meth:`emit`; :class:`JsonlEventLog` overrides it to defer even
        that until flush time.
        """
        self.emit(
            SlotExecuted(
                slot=slot,
                master=master,
                gap_s=gap_s,
                transmitted=tuple(
                    (tx.node, tx.message.msg_id) for tx in transmitted
                ),
                n_requests=n_requests,
                released=released,
                delivered=delivered,
                missed=missed,
                dropped=dropped,
            )
        )

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class JsonlEventLog(EventSink):
    """Streams events to disk, one JSON object per line.

    Emission is deliberately lazy: the hot calls only append to a
    buffer -- the event object (events are immutable-by-convention, so
    holding a reference is safe), or for the per-slot kinds a
    ``(formatter, field values)`` pair, so no event is built at all --
    and serialisation happens in one tight loop per :meth:`flush` batch.
    Running the formatters back-to-back over a batch is several times
    faster than calling them cold at each emission site inside the
    simulator's slot loop, and it keeps the per-event cost on the hot
    path to a list append.  Use as a context manager, or call
    :meth:`close` when the run ends.
    """

    def __init__(self, path: str | Path, buffer_lines: int = 1024):
        if buffer_lines < 1:
            raise ValueError(f"buffer_lines must be >= 1, got {buffer_lines}")
        self.path = Path(path)
        self.buffer_lines = buffer_lines
        self.events_written = 0
        self._buffer: list = []
        self._fh = self.path.open("w")

    def emit(self, event: _Event) -> None:
        """Buffer one event (serialised later, in :meth:`flush`)."""
        buffer = self._buffer
        buffer.append(event)
        self.events_written += 1
        if len(buffer) >= self.buffer_lines:
            self.flush()

    def emit_fields(self, cls: RawFieldEvent, values: tuple) -> None:
        """Buffer one event as its raw field values."""
        buffer = self._buffer
        buffer.append((cls.json_line, values))
        self.events_written += 1
        if len(buffer) >= self.buffer_lines:
            self.flush()

    def emit_slot(self, *fields) -> None:
        """Buffer one executed slot as its raw fields, in
        :meth:`EventSink.emit_slot` order (the transmissions' node and
        message id are fixed once planned)."""
        buffer = self._buffer
        buffer.append((self._slot_line, fields))
        self.events_written += 1
        if len(buffer) >= self.buffer_lines:
            self.flush()

    @staticmethod
    def _slot_line(
        slot: int,
        master: int,
        gap_s: float,
        transmitted: tuple,
        n_requests: int,
        released: int,
        delivered: int,
        missed: int,
        dropped: int,
    ) -> str:
        """One buffered slot as the ``kind="slot"`` JSON line (same
        format as :meth:`SlotExecuted.to_json`)."""
        return _slot_json(
            slot,
            master,
            gap_s,
            ",".join([f"[{tx.node},{tx.message.msg_id}]" for tx in transmitted]),
            n_requests,
            released,
            delivered,
            missed,
            dropped,
        )

    def flush(self) -> None:
        """Serialise and write any buffered events through to the OS."""
        if self._buffer:
            lines = [
                entry[0](*entry[1]) if type(entry) is tuple
                else entry.to_json()
                for entry in self._buffer
            ]
            self._fh.write("\n".join(lines) + "\n")
            self._buffer.clear()
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BoundedEventRing(EventSink):
    """Keeps the most recent ``max_events`` events in memory.

    Unlike the old :class:`~repro.sim.trace.SlotTrace` truncation (which
    kept the *oldest* records and silently dropped the rest), the ring
    keeps the newest -- the end of a run is usually where the interesting
    failure is -- and counts what it evicted in :attr:`dropped`.
    """

    def __init__(self, max_events: int = 10_000):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self._ring: deque[_Event] = deque(maxlen=max_events)
        self.dropped = 0

    def emit(self, event: _Event) -> None:
        """Keep the event, evicting (and counting) the oldest when full."""
        if len(self._ring) == self.max_events:
            self.dropped += 1
        self._ring.append(event)

    @property
    def events(self) -> tuple[_Event, ...]:
        """The retained events, oldest first."""
        return tuple(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------


class EventDispatcher:
    """Fans engine emissions out to sinks and slot-trace subscribers.

    Two kinds of subscribers:

    * *sinks* (:class:`EventSink`) receive every typed event -- the
      per-slot kinds as raw fields (:meth:`dispatch_slot`,
      :meth:`emit_fields`), so an unbuilt event costs a sink nothing;
    * *traces* (anything with a ``SlotTrace``-compatible ``on_slot``)
      receive the rich per-slot objects (outcome, executed plan, next
      plan, wire packets) through :meth:`dispatch_trace`; the engine
      builds the plans only when a trace is subscribed.

    Only traces force slot-by-slot stepping
    (:attr:`blocks_fast_forward`): a sink is content with one
    :class:`FastForwardSpan` event per skipped span.
    """

    def __init__(self, sinks: tuple[EventSink, ...] = ()):
        self._sinks: list[EventSink] = list(sinks)
        self._traces: list = []

    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def add_trace(self, trace) -> None:
        """Subscribe a ``SlotTrace``-compatible per-slot recorder."""
        self._traces.append(trace)

    @property
    def blocks_fast_forward(self) -> bool:
        """Whether any subscriber must see every slot individually."""
        return bool(self._traces)

    @property
    def wants_slot_events(self) -> bool:
        """Whether the engine should compile per-slot events at all."""
        return bool(self._sinks) or bool(self._traces)

    def emit(self, event: _Event) -> None:
        """Deliver one typed event to every sink."""
        for sink in self._sinks:
            sink.emit(event)

    def emit_fields(self, cls: RawFieldEvent, *values) -> None:
        """Deliver one event, given as its class and field values in
        field order, to every sink (:meth:`EventSink.emit_fields`)."""
        for sink in self._sinks:
            sink.emit_fields(cls, values)

    def dispatch_slot(
        self,
        slot: int,
        master: int,
        gap_s: float,
        transmitted: tuple,
        n_requests: int,
        released: int,
        delivered: int,
        missed: int,
        dropped: int,
    ) -> None:
        """Deliver one executed slot's fields to every sink
        (:meth:`EventSink.emit_slot`)."""
        for sink in self._sinks:
            sink.emit_slot(
                slot, master, gap_s, transmitted, n_requests,
                released, delivered, missed, dropped,
            )  # fmt: skip

    def dispatch_trace(self, outcome, plan_executed, plan_next) -> None:
        """Deliver one executed slot's records to every trace.

        The engine builds the plans only when :attr:`blocks_fast_forward`
        says a trace is subscribed.
        """
        for trace in self._traces:
            trace.on_slot(
                outcome,
                plan_executed,
                plan_next,
                collection=plan_next.collection_packet,
                distribution=plan_next.distribution_packet,
            )

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "EventDispatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
