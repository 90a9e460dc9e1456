"""The simulation engine: a slot loop with continuous-time bookkeeping.

Each iteration executes one slot of the ring: traffic release, the
transmissions decided by the *previous* slot's arbitration (the Figure 3
pipeline), and the arbitration for the *next* slot.  Wall-clock time
accumulates as ``slot_length + hand-over gap`` per slot, where the gap is
the variable quantity Equation (1) describes -- zero when the master keeps
the clock, up to ``(N-1)`` link delays when it moves to the upstream
neighbour.

Traffic release runs off one *release calendar*: a min-heap of
``(due_slot, attach_seq, source)`` for every source whose class names its
next release (:meth:`~repro.traffic.base.TrafficSource.next_release_slot`
overridden), plus a short always-poll list for the rest.  A slot polls
only what is due, in attachment order; the fast-forward reads the heap
top.  An entry is a lower bound -- it may be early, never late -- so
``messages_for_slot`` stays the authority on what is released.  A source
whose releases come from outside the slot loop (a
:class:`~repro.services.api.MessageInjector`) re-files itself through
the wake-up hook the engine binds when it files it
(:meth:`~repro.traffic.base.TrafficSource.bind_wakeup`).

One loop drives the ring: :meth:`Simulation.run_until`, behind
``run()`` and every signalling wait in :mod:`repro.services`.  It
fast-forwards over slots that provably repeat the last one
(see :meth:`Simulation._try_fast_forward`): *idle* spans, where nobody
requests, and *busy* spans, where the same grants repeat until the
first delivery, which is stepped -- under EDF with any number of grants
and waiting requesters (break denials included), until a waiting head's
laxity leaves its mapping bucket; under other policies for a lone
granted master.  A busy span may start at the slot that pays a clock
hand-over.  Both end at the next release the calendar names.  A span's
float time totals are summed a binade at a time
(:func:`_repeated_sum`), not a slot at a time.

Fault semantics (experiments S9/S12): a failed node is fail-stop with
passive optical pass-through -- it stops releasing, requesting,
transmitting and clocking, but light still traverses its links, so the
rest of the ring keeps operating.  A *transient* failure additionally
ends: on repair the node rejoins with empty queues (its stale messages
are purged and counted as fault-window drops) and, when an admission
controller is attached, its suspended connections are re-admitted.

Recovery is an explicit three-state machine driven once per slot:

* ``NORMAL`` -- the expected clock appeared; transmissions proceed.
* ``RECOVERING`` -- the clock never appeared (dead master, lost
  distribution packet, or clock glitch): after the timeout the
  *designated node* (lowest-id live node) restarts the clock, the slot's
  grants are void, and arbitration continues during the recovery slot.
  Consecutive failed recoveries back the timeout off exponentially
  (bounded), so repeated losses *during* recovery converge instead of
  thrashing.
* ``RESYNC`` -- the first clean slot after a recovery; one slot later
  the machine is back to ``NORMAL`` and the backoff resets.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Mapping, Sequence
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter

from repro.core.admission import AdmissionController
from repro.core.messages import MessageStatus
from repro.core.protocol import (
    MacProtocol,
    PlanFields,
    PlannedTransmission,
    SlotOutcome,
    SlotPlan,
)
from repro.core.queues import NodeQueues
from repro.core.timing import NetworkTiming
from repro.obs.events import (
    ArbitrationDenied,
    EventDispatcher,
    FastForwardSpan,
    FaultInjected,
    HandoverOccurred,
    NodeFailed,
    NodeRejoined,
    RecoveryPerformed,
    RunHeader,
)
from repro.obs.manifest import package_version as _package_version
from repro.sim.fault_models import FaultModel
from repro.sim.metrics import MetricsCollector, SimulationReport
from repro.sim.trace import SlotTrace
from repro.traffic.base import TrafficSource


#: Release-calendar heap entry: ``(due_slot, attach_seq, source)``.
_Due = tuple[int, int, TrafficSource]
#: Always-poll entry: the same shape with no due slot.
_Polled = tuple[None, int, TrafficSource]

_BY_ATTACH_SEQ = itemgetter(1)

#: A binade's floats are ``n * ulp`` for ``2**52 <= n < _BINADE_ULPS``.
_BINADE_ULPS = 1 << 53


def _never() -> bool:
    """The ``done`` predicate of a fixed-length :meth:`Simulation.run`."""
    return False


def _repeated_sum(x: float, c: float, k: int) -> float:
    """``x`` after ``k`` rounds of ``x += c``, bit for bit.

    ``x >= 0`` and ``c`` a positive normal float (a slot length).

    A fast-forward span must leave the float totals exactly where
    stepping leaves them, and stepping adds the slot length once per
    slot.  In one binade every float is a multiple ``n * u`` of its ulp
    ``u``, so ``fl(x + c)`` is ``x + d`` with the same rounded increment
    ``d`` for every ``x`` in it -- unless ``c / u`` ends in exactly one
    half, a rounding tie settled by the parity of ``n`` (to even).  So the
    loop jumps ``x + j * d`` to the last multiple below the binade top,
    exactly (an integer below ``2**53`` times a power of two), and takes a
    single plain step at each binade crossing and at an odd ``n`` under a
    tie.  ``k`` additions cost O(binades crossed), not O(k).
    """
    while k > 0:
        if x < c:
            # One plain step reaches c or above, a normal float.
            x += c
            k -= 1
            continue
        u = math.ulp(x)
        n = int(x / u)
        q = c / u  # exact: u is a power of two, q <= n
        m = int(q)
        frac = q - m
        if frac == 0.5:
            if n & 1:
                # The tie rounds to the even neighbour; take it plainly.
                x += c
                k -= 1
                continue
            d = m + (m & 1)
        else:
            d = m + (frac > 0.5)
        if d == 0:
            return x  # x + c rounds back to x, every time
        j = (_BINADE_ULPS - 1 - n) // d
        if j == 0:
            # The next step may cross into the next binade.
            x += c
            k -= 1
            continue
        if j > k:
            j = k
        x = (n + j * d) * u
        k -= j
    return x


class RecoveryState(enum.Enum):
    """Phases of the clock-loss recovery state machine."""

    #: Expected clock appeared; normal operation.
    NORMAL = "normal"
    #: Clock missing; designated node took over after the timeout.
    RECOVERING = "recovering"
    #: First clean slot after a recovery (still inside the fault window).
    RESYNC = "resync"


class Simulation:
    """Drives one MAC protocol over one workload.

    Parameters
    ----------
    timing:
        Network timing model; supplies the topology and the slot length.
    protocol:
        The MAC under test (CCR-EDF or a baseline).
    sources:
        Traffic sources; several may share a node.
    initial_master:
        Node clocking slot 0.
    drop_late:
        If True, queued messages that can no longer meet their deadline
        are dropped at the start of each slot (counted as misses); if
        False (default) they stay queued and miss on delivery.
    trace:
        Optional :class:`~repro.sim.trace.SlotTrace` to record events.
        Internally the trace subscribes to the event dispatch (see
        ``observer``); per-slot traces force slot-by-slot stepping, so
        they disable the fast-forward.
    observer:
        Optional :class:`~repro.obs.events.EventDispatcher`.  The engine
        emits typed events (slot executed, hand-over, faults, recovery,
        node fail/rejoin, fast-forward spans) through it to any attached
        sinks -- e.g. a JSONL log on disk -- without keeping anything in
        memory.  Streaming sinks do *not* disable fast-forward: a skipped
        idle span is logged as one
        :class:`~repro.obs.events.FastForwardSpan` event, a busy span as
        the per-slot ``slot`` records stepping would have emitted.
        ``None`` (default) costs nothing.
    faults:
        Optional fault source: any
        :class:`~repro.sim.fault_models.FaultModel` -- scripted,
        stochastic, transient, composite.  Its recovery timeout must
        exceed the worst-case hand-over gap, or healthy hand-overs would be
        misclassified as failures (enforced here, satisfying the
        documented invariant).
    loss_model:
        Optional per-packet loss model (reliable-transmission service).
        A lost packet consumes its slot but makes no progress; the sender
        learns of the loss from the acknowledgement piggybacked in the
        next distribution packet (refs [4][11]) and simply re-requests,
        so retransmission costs exactly one extra slot of that message's
        traffic and zero control bandwidth.
    admission:
        Optional admission controller holding the accepted set Ma.  When
        a node fail-stops, its connections are suspended (utilisation
        reclaimed); when it rejoins they are re-admitted.
    """

    def __init__(
        self,
        timing: NetworkTiming,
        protocol: MacProtocol,
        sources: Sequence[TrafficSource] = (),
        initial_master: int = 0,
        drop_late: bool = False,
        trace: SlotTrace | None = None,
        faults: FaultModel | None = None,
        loss_model: "PacketLossModel | None" = None,
        admission: AdmissionController | None = None,
        fast_forward: bool = True,
        profiler: "PhaseProfiler | None" = None,
        observer: EventDispatcher | None = None,
    ):
        self.timing = timing
        self.protocol = protocol
        self.topology = protocol.topology
        n = self.topology.n_nodes
        if timing.topology.n_nodes != n:
            raise ValueError(
                "timing model and protocol disagree on the ring size"
            )
        if not (0 <= initial_master < n):
            raise ValueError(
                f"initial master {initial_master} out of range for N={n}"
            )
        for src in sources:
            if not (0 <= src.node < n):
                raise ValueError(
                    f"source attached to node {src.node}, outside the ring"
                )
        # Release calendar (see _build_calendar): built lazily, at the
        # first step or fast-forward probe, so engines that never poll
        # (the compiled vector tier) never pay for it.
        self._sources: tuple[TrafficSource, ...] = tuple(sources)
        self._calendar: list[_Due] | None = None
        self._always_poll: tuple[_Polled, ...] = ()
        self._attach_seq = 0
        self.drop_late = drop_late
        self.trace = trace
        if faults is not None and not isinstance(faults, FaultModel):
            raise TypeError(
                f"faults must be a FaultModel or None, got "
                f"{type(faults).__name__}; script faults with "
                "ScriptedFaultModel(node_failures=..., "
                "control_loss_slots=..., "
                "recovery=RecoveryPolicy(timeout_s=...))"
            )
        self.faults = faults
        self.loss_model = loss_model
        self.admission = admission
        #: Packets lost and later retransmitted (reliable service stats).
        self.packets_lost = 0
        # Observability: the legacy `trace` argument subscribes to the
        # same dispatch every other sink uses, so there is exactly one
        # per-slot emission point.  `observer is None` is the only check
        # the unobserved hot path pays.
        if trace is not None:
            if observer is None:
                observer = EventDispatcher()
            observer.add_trace(trace)
        self.observer = observer
        # Per-slot event counters (released/delivered/missed/dropped),
        # rebound by step() while slot events are wanted; None otherwise.
        self._ev: list[int] | None = None
        if observer is not None:
            protocol.observer = observer
            if admission is not None:
                admission.observer = observer
            observer.emit(
                RunHeader(
                    n_nodes=n,
                    protocol=type(protocol).__name__,
                    slot_length_s=timing.slot_length_s,
                    package_version=_package_version(),
                )
            )

        if self.faults is not None:
            worst_gap = timing.max_handover_time_s
            timeout = self.faults.recovery.timeout_s
            if timeout <= worst_gap:
                raise ValueError(
                    f"recovery timeout {timeout:.3e} s must exceed the "
                    f"worst-case hand-over gap {worst_gap:.3e} s, or healthy "
                    "hand-overs would be misclassified as failures"
                )

        # Local queue order follows the protocol's scheduling policy
        # (None = the default earliest-deadline order; RM/FIFO policies
        # re-key the deadline-bearing heaps).
        queue_policy = protocol.queue_policy
        self.queues: dict[int, NodeQueues] = {
            i: NodeQueues(i, policy=queue_policy) for i in range(n)
        }
        self._empty_queues: dict[int, NodeQueues] = {}
        self.metrics = MetricsCollector(n)
        self.current_slot = 0
        self._prev_master = initial_master
        self._pending_distribution_loss = False
        #: Recovery state machine (see module docstring).
        self.recovery_state = RecoveryState.NORMAL
        self._recovery_attempts = 0
        #: Liveness of each node as of the last processed slot.
        self._node_alive: list[bool] = [True] * n
        # The queue view handed to the protocol each slot.  Without
        # faults it is the queue dict itself; with faults it is a
        # persistent shadow dict in which dead nodes are replaced by an
        # empty queue, updated only on liveness transitions instead of
        # being rebuilt every slot.
        self._queues_view: Mapping[int, NodeQueues] = (
            self.queues if self.faults is None else dict(self.queues)
        )
        self.profiler = profiler
        # Fast-forward is sound only when each skipped slot is an exact
        # repetition: a stationary idle plan (protocol property, which
        # the EDF hand-over also gives a busy plan while its requests
        # keep their priorities), no stochastic per-slot fault draws,
        # and no per-slot trace records (traces must show every slot, so
        # they disable it).  Streaming event sinks do NOT disable it: an
        # idle span is logged as one FastForwardSpan event, a busy span
        # slot by slot.
        self.fast_forward = (
            fast_forward
            and (observer is None or not observer.blocks_fast_forward)
            and self.faults is None
            and loss_model is None
            and protocol.idle_plan_is_stationary
        )
        # The plan pending for current_slot, as the protocol's arbitrate()
        # returns it: no SlotPlan is built per slot (see pending_plan).
        # Slot 0 has no preceding arbitration: the initial master clocks an
        # idle slot while the first collection/distribution round runs.
        self._pending: PlanFields = (initial_master, 0.0, (), (), 0)

    # ------------------------------------------------------------------

    @classmethod
    def from_scenario(
        cls, config, options=None
    ) -> "Simulation":
        """Build a simulation from a :class:`~repro.sim.runner.ScenarioConfig`.

        ``options`` is a :class:`~repro.sim.runner.RunOptions` bundling
        the run-time attachments (traces, faults, profilers, ...); the
        default instruments nothing.  Equivalent to
        :func:`repro.sim.runner.build_simulation`, exposed here so the
        constructor lives next to the class it constructs.
        """
        # Imported lazily: runner imports this module for Simulation.
        from repro.sim.runner import build_simulation

        return build_simulation(config, options)

    @property
    def report(self) -> SimulationReport:
        """The accumulated measurement report."""
        return self.metrics.report

    @property
    def pending_plan(self) -> SlotPlan:
        """The plan the next executed slot carries out (read-only).

        Built on demand from the engine's pending fields by the protocol
        (:meth:`~repro.core.protocol.MacProtocol.plan_record`), which
        attaches the arbitration record and packets when it traces them.
        """
        return self.protocol.plan_record(self.current_slot, self._pending)

    def _resume(self, slot: int, prev_master: int, plan: PlanFields) -> None:
        """Continue at ``slot`` with ``plan`` pending, clocked last by
        ``prev_master``: the hand-back of a vector kernel that ran the
        slots before it."""
        self.current_slot = slot
        self._prev_master = prev_master
        self._pending = plan

    # ------------------------------------------------------------------
    # Dynamic source management (runtime connection set-up/tear-down).
    # ------------------------------------------------------------------

    @property
    def sources(self) -> tuple[TrafficSource, ...]:
        """The attached traffic sources, in attachment order (read-only)."""
        return self._sources

    @sources.setter
    def sources(self, value: object) -> None:
        raise AttributeError(
            "Simulation.sources is read-only (the release calendar indexes "
            "it); use attach_source() / detach_connection_source()"
        )

    def attach_source(self, source: TrafficSource) -> TrafficSource:
        """Attach a traffic source to a *running* simulation.

        The source starts releasing from the next executed slot.  This is
        the one sanctioned way to grow :attr:`sources` mid-run (the
        connection-management client activates an admitted connection's
        periodic source through it); validation matches construction
        time, so a source on a node outside the ring is rejected instead
        of corrupting the queue map.  Returns the source for chaining.
        """
        if not (0 <= source.node < self.topology.n_nodes):
            raise ValueError(
                f"source attached to node {source.node}, outside the ring"
            )
        self._sources = self._sources + (source,)
        if self._calendar is not None:
            self._schedule(source)
        return source

    def detach_connection_source(self, connection_id: int) -> int:
        """Detach the periodic source(s) of a torn-down connection.

        Returns how many sources were removed (0 when the connection
        never activated -- e.g. it was rejected at admission, or is
        driven by an external source the caller manages itself).
        """
        from repro.traffic.periodic import ConnectionSource

        # One scan names the torn-down sources, by identity (a source
        # need not be hashable); the filters below are set lookups.
        torn = {
            id(s)
            for s in self._sources
            if isinstance(s, ConnectionSource)
            and s.connection.connection_id == connection_id
        }
        if not torn:
            return 0
        kept = tuple(s for s in self._sources if id(s) not in torn)
        removed = len(self._sources) - len(kept)
        self._sources = kept
        calendar = self._calendar
        if calendar is not None:
            # In place: wake-up hooks hold this list.
            calendar[:] = [e for e in calendar if id(e[2]) not in torn]
            heapify(calendar)
            self._always_poll = tuple(
                e for e in self._always_poll if id(e[2]) not in torn
            )
        return removed

    # ------------------------------------------------------------------
    # Release calendar: who has to be polled in which slot.
    # ------------------------------------------------------------------

    def _schedule(self, source: TrafficSource) -> None:
        """File ``source`` in the calendar, as of :attr:`current_slot`.

        A source whose class overrides
        :meth:`TrafficSource.next_release_slot` goes on the heap at the
        slot it names (or nowhere, if it will never release again).
        Every other source -- the conservative default, which answers
        ``after`` because its release decision is a per-slot RNG draw,
        and duck-typed sources with no such method -- is polled in every
        executed slot.  The decision is by
        *class*; the calls go through the instance, so a wrapper set on
        ``source.next_release_slot`` later is what the engine calls.  A
        source on the heap is handed a wake-up hook that files it again
        for the next executed slot (see :meth:`TrafficSource.bind_wakeup`).
        """
        calendar = self._calendar
        assert calendar is not None
        seq = self._attach_seq
        self._attach_seq = seq + 1
        probe = getattr(type(source), "next_release_slot", None)
        if probe is None or probe is TrafficSource.next_release_slot:
            self._always_poll += ((None, seq, source),)
            return
        due = source.next_release_slot(self.current_slot)
        if due is not None:
            heappush(calendar, (due, seq, source))
        # The wake-up hook files the source as due at slot 0, a lower
        # bound on every slot: the next step polls it and a fast-forward
        # probe asks it first.  It holds the heap, not the engine, so a
        # source keeps no finished simulation alive.  A woken source may
        # still be filed for a later slot as well; step() polls it once.
        bind = getattr(source, "bind_wakeup", None)
        if bind is not None:
            bind(functools.partial(heappush, calendar, (0, seq, source)))

    def _build_calendar(self) -> list[_Due]:
        """Index every attached source; returns the (new) heap."""
        calendar: list[_Due] = []
        self._calendar = calendar
        self._always_poll = ()
        for source in self._sources:
            self._schedule(source)
        return calendar

    def _alive(self, node: int, slot: int) -> bool:
        return self.faults is None or self.faults.is_alive(node, slot)

    def _update_node_states(self, slot: int) -> None:
        """Process node fail-stop and rejoin transitions at ``slot``.

        A failing node's queue is frozen (fail-stop: nobody can read it
        back); a rejoining node starts from *empty* queues, so its stale
        messages are purged (counted as fault-window drops) and it must
        re-request everything.  Admission bookkeeping follows the node:
        suspend on failure, re-admit on rejoin.
        """
        assert self.faults is not None
        view = self._queues_view
        assert isinstance(view, dict)
        observer = self.observer
        ev = self._ev
        if self.admission is not None:
            # Stamp the controller so its admission events carry the slot.
            self.admission.current_slot = slot
        dead = 0
        for node in range(self.topology.n_nodes):
            alive = self.faults.is_alive(node, slot)
            if not alive:
                dead += 1
            if alive == self._node_alive[node]:
                continue
            self._node_alive[node] = alive
            if not alive:
                if node not in self._empty_queues:
                    # A dead node appends nothing: present an empty queue.
                    self._empty_queues[node] = NodeQueues(node)
                view[node] = self._empty_queues[node]
                self.metrics.on_node_failure()
                if observer is not None:
                    observer.emit(NodeFailed(slot=slot, node=node))
                if self.admission is not None:
                    self.admission.suspend_node(node)
            else:
                view[node] = self.queues[node]
                self.metrics.on_node_rejoin()
                purged = self.queues[node].purge()
                was_active = self.metrics.fault_window_active
                self.metrics.fault_window_active = True
                for msg in purged:
                    self.metrics.on_drop(msg)
                    if ev is not None:
                        ev[3] += 1
                        if msg.deadline_slot is not None:
                            ev[2] += 1
                self.metrics.fault_window_active = was_active
                if observer is not None:
                    observer.emit(
                        NodeRejoined(slot=slot, node=node, purged=len(purged))
                    )
                if self.admission is not None:
                    self.admission.resume_node(node)
        if dead:
            self.metrics.on_node_downtime(dead)

    def _resolve_clock(
        self,
        slot: int,
        master: int,
        gap_s: float,
        transmissions: tuple[PlannedTransmission, ...],
    ) -> tuple[int, float, tuple[PlannedTransmission, ...]]:
        """Run the recovery state machine for one slot.

        Decides whether the slot's expected clock actually appears; if
        not, the designated node assumes the master role after the
        (backed-off) timeout and the slot's grants are void.  Returns the
        slot's ``(master, gap_s, transmissions)``.
        """
        faults = self.faults
        assert faults is not None
        clock_missing = not self._alive(master, slot)
        if self._pending_distribution_loss:
            # Nobody learnt the arbitration result: the planned master
            # does not know it should clock.
            clock_missing = True
        self._pending_distribution_loss = False
        if faults.clock_glitch(slot):
            self.metrics.on_fault_event("clock_glitch")
            if self.observer is not None:
                self.observer.emit(
                    FaultInjected(slot=slot, fault="clock_glitch")
                )
            clock_missing = True

        if not clock_missing:
            if self.recovery_state is RecoveryState.RECOVERING:
                self.recovery_state = RecoveryState.RESYNC
            elif self.recovery_state is RecoveryState.RESYNC:
                self.recovery_state = RecoveryState.NORMAL
            self._recovery_attempts = 0
            if transmissions:
                # Void grants of transmitters that died meanwhile.
                transmissions = tuple(
                    tx for tx in transmissions if self._node_alive[tx.node]
                )
            return master, gap_s, transmissions

        designated = faults.designated_node(slot, self.topology.n_nodes)
        timeout = faults.recovery.timeout_for(self._recovery_attempts)
        if self.observer is not None:
            self.observer.emit(
                RecoveryPerformed(
                    slot=slot,
                    designated_node=designated,
                    timeout_s=timeout,
                    attempt=self._recovery_attempts,
                )
            )
        self._recovery_attempts += 1
        self.recovery_state = RecoveryState.RECOVERING
        self.metrics.on_recovery(timeout)
        return designated, gap_s + timeout, ()

    def step(self) -> SlotOutcome:
        """Execute one slot and plan the next; returns what happened."""
        slot = self.current_slot
        master, gap_s, transmissions, denied, n_requests = self._pending
        protocol = self.protocol
        faults = self.faults
        profiler = self.profiler
        observer = self.observer
        # Per-slot event counters [released, delivered, missed, dropped];
        # incremented only at the (sparse) sites where activity happens,
        # so compiling slot events costs O(activity), not O(classes).
        ev = self._ev = (
            [0, 0, 0, 0]
            if observer is not None and observer.wants_slot_events
            else None
        )
        if profiler is not None:
            t_phase = profiler.clock()

        # --- fault handling: does this slot's clock actually start? ----
        if faults is not None:
            self._update_node_states(slot)
            master, gap_s, transmissions = self._resolve_clock(
                slot, master, gap_s, transmissions
            )
            self.metrics.fault_window_active = (
                self.recovery_state is not RecoveryState.NORMAL
            )

        # --- traffic release -------------------------------------------
        # Poll what the calendar says is due plus the always-poll list,
        # in attachment order.  An entry is a lower bound: a source
        # popped early just answers "nothing", so messages_for_slot stays
        # the authority on what is released; a source woken while also
        # filed for this slot is polled once.
        calendar = self._calendar
        if calendar is None:
            calendar = self._build_calendar()
        batch: Sequence[_Due | _Polled] = self._always_poll
        n_due = n_polls = 0
        last_seq = -1
        if calendar and calendar[0][0] <= slot:
            due_now: list[_Due | _Polled] = [heappop(calendar)]
            while calendar and calendar[0][0] <= slot:
                due_now.append(heappop(calendar))
            n_due = len(due_now)
            due_now += batch
            if len(due_now) > 1:
                due_now.sort(key=_BY_ATTACH_SEQ)
            batch = due_now
        for due, seq, src in batch:
            if seq == last_seq:
                continue
            last_seq = seq
            if faults is None or self._node_alive[src.node]:
                n_polls += 1
                for msg in src.messages_for_slot(slot):
                    if msg.source != src.node or msg.created_slot != slot:
                        raise ValueError(
                            f"source at node {src.node} produced an inconsistent "
                            f"message (source={msg.source}, "
                            f"created_slot={msg.created_slot}, slot={slot})"
                        )
                    self.queues[msg.source].enqueue(msg)
                    self.metrics.on_release(msg)
                    if ev is not None:
                        ev[0] += 1
            if due is not None:
                again = src.next_release_slot(slot + 1)
                if again is not None:
                    heappush(calendar, (again, seq, src))
        if profiler is not None and batch:
            profiler.count("source_polls", n_polls)
            profiler.count("calendar_due", n_due)

        # --- late-drop policy -------------------------------------------
        if self.drop_late:
            for queues in self.queues.values():
                for dropped in queues.drop_late(slot):
                    self.metrics.on_drop(dropped)
                    if ev is not None:
                        ev[3] += 1
                        if dropped.deadline_slot is not None:
                            ev[2] += 1

        if profiler is not None:
            t_phase = profiler.lap("release", t_phase)

        # --- packet loss (reliable-transmission service) ----------------
        if self.loss_model is not None and transmissions:
            kept = tuple(
                tx for tx in transmissions if not self.loss_model.lost(tx, slot)
            )
            self.packets_lost += len(transmissions) - len(kept)
            transmissions = kept

        # --- execute the planned transmissions --------------------------
        transmitted, wasted = protocol.execute_grants(slot, transmissions)
        for tx in transmitted:
            if tx.message.status is MessageStatus.DELIVERED:
                self.metrics.on_delivery(tx.message)
                if ev is not None:
                    ev[1] += 1
                    if tx.message.met_deadline() is False:
                        ev[2] += 1

        if profiler is not None:
            t_phase = profiler.lap("execute", t_phase)

        # Slot traces read the executed plan's record: built for them
        # alone, before arbitration moves the protocol to the next round.
        executed: SlotPlan | None = None
        if observer is not None and observer.blocks_fast_forward:
            executed = protocol.plan_record(
                slot, (master, gap_s, transmissions, denied, n_requests)
            )

        # --- arbitration for the next slot ------------------------------
        pending = protocol.arbitrate(slot, master, self._queues_view)
        if profiler is not None:
            t_phase = profiler.lap("arbitration", t_phase)
        if faults is not None:
            if faults.collection_lost(slot):
                # The request packet never returned: the master knows the
                # round failed and keeps the clock through an idle slot.
                self.metrics.on_fault_event("collection_loss")
                self.metrics.on_arbitration_void()
                if observer is not None:
                    observer.emit(
                        FaultInjected(slot=slot, fault="collection_loss")
                    )
                pending = (master, 0.0, (), (), 0)
            if faults.distribution_lost(slot):
                # The result never reached the nodes: detected next slot
                # when the expected clock stays silent.
                self.metrics.on_fault_event("distribution_loss")
                self._pending_distribution_loss = True
                if observer is not None:
                    observer.emit(
                        FaultInjected(slot=slot, fault="distribution_loss")
                    )

        # --- accounting --------------------------------------------------
        prev_master = self._prev_master
        hops = (master - prev_master) % self.topology.n_nodes
        self.metrics.on_slot(
            master,
            gap_s,
            len(transmitted),
            len(wasted),
            len(denied),
            self.timing.slot_length_s,
            hops,
        )
        if profiler is not None:
            profiler.lap("metrics", t_phase)
        outcome = SlotOutcome(slot, master, gap_s, transmitted, wasted)
        if observer is not None:
            if hops:
                observer.emit_fields(
                    HandoverOccurred, slot, prev_master, master, hops, gap_s
                )
            if executed is not None:
                observer.dispatch_trace(
                    outcome, executed, protocol.plan_record(slot + 1, pending)
                )
            if ev is not None:
                observer.dispatch_slot(
                    slot, master, gap_s, transmitted, pending[4],
                    ev[0], ev[1], ev[2], ev[3],
                )  # fmt: skip

        self._prev_master = master
        self._pending = pending
        self.current_slot = slot + 1
        return outcome

    def _try_fast_forward(self, end: int) -> int:
        """Skip a run of provably repeating slots; returns how many.

        Sound only when every slot of the span re-plans the pending plan
        unchanged and no traffic source can release before the skip
        target.  Two plans are stationary:

        * the *idle* plan: no requests anywhere, and the master keeps the
          clock with a zero hand-over gap;
        * a *busy* plan: at least one grant, re-planned identically while
          every request in it keeps its priority -- queue heads cannot
          change before a release or a delivery, so the protocol's answer
          (:meth:`~repro.core.protocol.MacProtocol.busy_plan_repeats_until`)
          bounds the span.  Under EDF a granted message keeps a constant
          laxity and a waiting head -- a losing or a break-denied
          requester -- keeps its priority until its laxity leaves its
          mapping bucket, so several grants and waiting requesters span
          too; other policies span a lone requester that is the master
          and granted.  The span stops one slot short of the first
          delivery, which is stepped.  Not under drop-late, where the
          slot's drop sweep could take a message off a queue.

        A busy plan may hand the clock over: the EDF sweep does not read
        the current master, so the hand-over slot's own arbitration
        returns the same grants and denials with the master kept and the
        diagonal gap of the ring's hand-over table (zero, Eq. 1).  The
        span's first slot then pays the pending gap and hops once, and
        the rest repeat as above.

        Each spanned slot then books what stepping would: the batch
        accounting below reproduces slot-by-slot stepping bit-for-bit
        (float totals are what repeated addition gives, see
        :func:`_repeated_sum`), and a busy span hands event sinks the
        same per-slot events, in stepping's order.
        """
        plan = self._pending
        master, gap_s, busy, denied, n_requests = plan
        prev_master = self._prev_master
        handover = master != prev_master or gap_s != 0.0
        slot = self.current_slot
        target = end
        if busy:
            if self.drop_late:
                return 0
            # The delivering slot is stepped, never spanned.
            for tx in busy:
                delivers = slot + tx.message.remaining_slots - 1
                if delivers < target:
                    target = delivers
            if target <= slot:
                return 0
        elif n_requests or handover:
            return 0
        calendar = self._calendar
        if calendar is None:
            calendar = self._build_calendar()
        # Always-polled sources answer for themselves (the default says
        # "now", which vetoes the skip; no method at all means the same).
        for entry in self._always_poll:
            probe = getattr(entry[2], "next_release_slot", None)
            nxt = slot if probe is None else probe(slot)
            if nxt is None:
                continue
            if nxt <= slot:
                return 0
            if nxt < target:
                target = nxt
        # For the rest the heap top is the earliest release.  Entries a
        # vector-kernel run left behind current_slot are brought up to
        # date first, so a stale entry costs a question, not a skip.
        while calendar and calendar[0][0] <= slot:
            due, seq, src = calendar[0]
            if due == slot:
                return 0
            nxt = src.next_release_slot(slot)
            if nxt is None:
                heappop(calendar)
            elif nxt <= slot:
                return 0
            else:
                heapreplace(calendar, (nxt, seq, src))
        if calendar and calendar[0][0] < target:
            target = calendar[0][0]
        if handover:
            # The gap of a master keeping the clock: the table's diagonal.
            n = self.topology.n_nodes
            kept_gap = self.topology.handover_gap_table[master * (n + 1)]
            if kept_gap != 0.0:
                return 0
        if busy:
            # Asked last: the protocol's answer is the costliest bound.
            repeats = self.protocol.busy_plan_repeats_until(
                slot, plan, self._queues_view
            )
            if repeats is not None and repeats < target:
                target = repeats
        k = target - slot
        if k <= 0:
            return 0
        r = self.metrics.report
        slot_length = self.timing.slot_length_s
        rest = k
        hops = 0
        if handover:
            # The first slot books its gap and hops as step() does.
            hops = (master - prev_master) % n
            r.wall_time_s += slot_length + gap_s
            r.slot_time_s += slot_length
            r.gap_time_s += gap_s
            r.handover_hops[hops] += 1
            rest -= 1
            self._prev_master = master
            self._pending = (master, kept_gap, busy, denied, n_requests)
        r.wall_time_s = _repeated_sum(r.wall_time_s, slot_length, rest)
        r.slot_time_s = _repeated_sum(r.slot_time_s, slot_length, rest)
        r.slots_simulated += k
        r.master_slots[master] += k
        if rest:
            r.handover_hops[0] += rest
        if busy:
            r.busy_slots += k
            r.packets_sent += k * len(busy)
            r.break_denials += k * len(denied)
            for tx in busy:
                msg = tx.message
                msg.sent_slots += k
                msg.status = MessageStatus.IN_TRANSIT
        # The pending plan now applies to the slot after the span.
        self.current_slot = slot + k
        if self.profiler is not None:
            self.profiler.count(
                "busy_forwarded_slots" if busy else "fast_forwarded_slots", k
            )
        observer = self.observer
        if observer is None:
            return k
        if not busy:
            observer.emit_fields(
                FastForwardSpan, slot, self.current_slot, k, master
            )
            return k
        # Stepping's order per slot: the slot's arbitration denies (the
        # protocol emits through this observer), the hand-over is
        # logged, then the slot record.
        nodes = tuple([tx.node for tx in denied])
        dispatch_slot = (
            observer.dispatch_slot if observer.wants_slot_events else None
        )
        for t in range(slot, self.current_slot):
            if nodes:
                observer.emit_fields(ArbitrationDenied, t + 1, nodes)
            if hops:
                observer.emit_fields(
                    HandoverOccurred, t, prev_master, master, hops, gap_s
                )
                hops = 0
            if dispatch_slot is not None:
                dispatch_slot(t, master, gap_s, busy, n_requests, 0, 0, 0, 0)
            gap_s = 0.0
        return k

    def run_until(self, done: Callable[[], bool], max_slots: int) -> bool:
        """Drive the ring until ``done()`` holds; at most ``max_slots`` slots.

        The one slot loop: ``done`` is asked before every step or span,
        and each iteration either fast-forwards (spans never pass
        ``start + max_slots``) or steps one slot.  Returns ``True`` once
        ``done()`` holds and ``False`` when the budget ran out first --
        then exactly ``max_slots`` slots ran.

        A delivery is always a stepped slot (a busy span ends the slot
        before it), so a predicate on delivery status is seen in the
        slot it turns true.  A predicate on the slot count is not: a span
        can jump past it -- pass a budget instead (:meth:`run` does).
        """
        if max_slots < 0:
            raise ValueError(f"slot count must be non-negative, got {max_slots}")
        end = self.current_slot + max_slots
        fast_forward = self.fast_forward
        profiler = self.profiler if fast_forward else None
        while not done():
            if self.current_slot >= end:
                return False
            if fast_forward:
                # The probe, failed ones included, is its own phase,
                # symmetric with the vector engine's "kernel" phase.
                if profiler is not None:
                    t_phase = profiler.clock()
                forwarded = self._try_fast_forward(end)
                if profiler is not None:
                    profiler.lap("fast_forward", t_phase)
                if forwarded:
                    continue
            self.step()
        return True

    def run(self, n_slots: int) -> SimulationReport:
        """Execute ``n_slots`` slots and return the accumulated report."""
        self.run_until(_never, n_slots)
        return self.report
