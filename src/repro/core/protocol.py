"""The per-slot MAC protocol state machine.

Ties together request composition, the two-phase TCMA arbitration, and
clock hand-over into a single object the simulator drives slot by slot.

The pipeline follows Figure 3: the arbitration executed *during* slot
``k`` (collection phase, then distribution phase) decides the
transmissions and the master of slot ``k + 1``.  The simulator therefore
alternates, for every slot ``k``:

1. execute the transmissions planned for slot ``k`` (decided last slot);
2. run :meth:`MacProtocol.arbitrate` on the current queue state to obtain
   the plan -- grants, next master, inter-slot gap -- for slot ``k + 1``.

The simulator's per-slot path is record-free: :meth:`MacProtocol.arbitrate`
returns the plan as a :data:`PlanFields` tuple and
:meth:`MacProtocol.execute_grants` executes one.  :meth:`plan_slot` and
:meth:`execute_plan` wrap them in :class:`SlotPlan` / :class:`SlotOutcome`
records for callers that read those (traces, tests).

Baseline protocols (CC-FPR and variants, :mod:`repro.baselines`) implement
the same :class:`MacProtocol` interface so the simulator is agnostic to
which MAC it is driving.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

from repro.core.arbitration import Arbiter, ArbitrationResult, Grant
from repro.core.clocking import ClockHandoverStrategy, EdfHandover
from repro.core.mapping import LaxityMapping, LogarithmicMapping
from repro.core.messages import Message, MessageStatus
from repro.core.policy import EdfPolicy, SchedulingPolicy, resolve_policy
from repro.core.priorities import PRIO_NON_REAL_TIME, TrafficClass
from repro.core.queues import NodeQueues
from repro.obs.events import ArbitrationDenied, EventDispatcher
from repro.phy.packets import CollectionPacket, CollectionRequest, DistributionPacket
from repro.ring.segments import links_for_multicast
from repro.ring.topology import RingTopology

#: Statuses of a message with nothing left to send: its grant is wasted.
_FINISHED = (MessageStatus.DROPPED, MessageStatus.DELIVERED)


@dataclass(frozen=True, slots=True)
class PlannedTransmission:
    """One grant bound to the concrete message it will transmit."""

    node: int
    message: Message
    links: int
    destinations: frozenset[int]


@dataclass(frozen=True, slots=True)
class SlotPlan:
    """Everything decided by one arbitration round (for slot ``k + 1``).

    ``denied_by_break`` carries the messages that were refused solely
    because their path crossed the next slot's clock break, keyed by node
    -- the raw material of the priority-inversion experiments.
    """

    #: Slot index the plan applies to.
    transmit_slot: int
    #: Master (clock generator) of that slot.
    master: int
    #: Clock hand-over gap preceding that slot [s].
    gap_s: float
    transmissions: tuple[PlannedTransmission, ...] = ()
    denied_by_break: tuple[PlannedTransmission, ...] = ()
    #: Number of nodes that submitted a non-empty request.
    n_requests: int = 0
    #: The raw arbitration result, built only when the protocol was
    #: constructed with ``trace_packets=True`` (the distribution packet
    #: is encoded from it); None otherwise, and always for protocols
    #: without a global arbitration step, e.g. CC-FPR's distributed
    #: booking.
    arbitration: ArbitrationResult | None = None
    #: The control packets exchanged (populated only when the protocol was
    #: constructed with ``trace_packets=True``; heavy for long runs).
    collection_packet: "CollectionPacket | None" = None
    distribution_packet: "DistributionPacket | None" = None


@dataclass(frozen=True, slots=True)
class SlotOutcome:
    """What actually happened in one executed slot."""

    slot: int
    master: int
    gap_s: float
    #: Messages that sent one packet this slot.
    transmitted: tuple[PlannedTransmission, ...] = ()
    #: Grants that went unused (message dropped between plan and slot).
    wasted: tuple[PlannedTransmission, ...] = ()


#: A slot plan without the record: ``(master, gap_s, transmissions,
#: denied_by_break, n_requests)``, the :class:`SlotPlan` fields after
#: ``transmit_slot`` and before the traced ones.
PlanFields = tuple[
    int,
    float,
    tuple[PlannedTransmission, ...],
    tuple[PlannedTransmission, ...],
    int,
]


@lru_cache(maxsize=16)
def _route_table(
    topology: RingTopology,
) -> dict[tuple[int, frozenset[int]], tuple[int, int]]:
    """The ``route_masks`` memo, one per distinct topology."""
    return {}


class MacProtocol(ABC):
    """Interface every MAC implementation exposes to the simulator."""

    def __init__(self, topology: RingTopology) -> None:
        self.topology = topology
        #: Optional :class:`~repro.obs.events.EventDispatcher`; set by the
        #: simulator when observability is on.  Protocols may emit typed
        #: events (e.g. arbitration denials) through it.
        self.observer: EventDispatcher | None = None
        # Identity of the last queue mapping that passed the coverage
        # check: the simulator hands the same mapping object to every
        # slot, so validating it once (instead of rebuilding two sets per
        # slot) takes the check off the hot path without weakening it for
        # direct callers, who construct fresh mappings.
        self._checked_queues: Mapping[int, NodeQueues] | None = None
        # Path masks depend only on (source, destinations) on a fixed
        # topology; caching them takes link computation off the per-slot
        # hot path, and sharing the cache per ring takes it off every
        # fresh run on an equal topology.
        self._route_cache = _route_table(topology)
        # Hand-over gaps per (master, next master) pair on the fixed ring.
        self._gap_cache: dict[tuple[int, int], float] = {}

    @property
    def queue_policy(self) -> "SchedulingPolicy | None":
        """Policy ordering the per-node transmit queues, or ``None``.

        ``None`` means the :class:`~repro.core.queues.NodeQueues` default
        (earliest deadline first within deadline classes) -- the right
        order for every protocol that has no pluggable policy.
        """
        return None

    @property
    def idle_plan_is_stationary(self) -> bool:
        """Whether an all-idle arbitration keeps master and gap unchanged.

        True only for protocols whose plan, when every queue is empty, is
        a fixed point: same master, zero gap, no grants -- and whose busy
        plan (master unchanged, zero gap, no break denial, at least one
        grant) is re-planned identically for as long as every request in
        it keeps its priority, up to the slot
        :meth:`busy_plan_repeats_until` names.  The simulator's
        fast-forward (idle and busy spans) is sound exactly under this
        property; rotating-master protocols (TDMA, CC-FPR, round-robin
        hand-over) must return False.
        """
        return False

    def busy_plan_repeats_until(
        self,
        transmit_slot: int,
        plan: PlanFields,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> int | None:
        """First slot whose arbitration may re-plan a busy ``plan`` differently.

        Asked by the simulator's fast-forward about the plan pending for
        ``transmit_slot``, with at least one grant, once it has ruled out
        every other change before the answer: no release, drop or
        delivery, master and gap unchanged, no break denial.  What is left
        is priorities moving; ``None`` means they never change the plan,
        and ``transmit_slot`` means no slot is guaranteed.  This default
        spans only a lone requester that is the master and granted: with
        one request its priority decides nothing, whatever the policy.
        """
        master, _, transmissions, _, n_requests = plan
        if n_requests == 1 and transmissions[0].node == master:
            return None
        return transmit_slot

    def _check_queues(self, queues_by_node: Mapping[int, NodeQueues]) -> None:
        """Validate that the mapping covers exactly nodes ``0..N-1``.

        Memoised by object identity: the per-slot driver passes one
        long-lived mapping, which is validated on first sight only.
        """
        if queues_by_node is self._checked_queues:
            return
        n = self.topology.n_nodes
        if set(queues_by_node.keys()) != set(range(n)):
            raise ValueError(
                f"queues_by_node must cover exactly nodes 0..{n - 1}"
            )
        self._checked_queues = queues_by_node

    def route_masks(
        self, source: int, destinations: frozenset[int]
    ) -> tuple[int, int]:
        """Cached ``(link mask, destination mask)`` of one ring path."""
        key = (source, destinations)
        cached = self._route_cache.get(key)
        if cached is None:
            links = links_for_multicast(self.topology, source, destinations)
            dest_mask = 0
            for dst in destinations:
                dest_mask |= 1 << dst
            cached = (links, dest_mask)
            self._route_cache[key] = cached
        return cached

    @abstractmethod
    def arbitrate(
        self,
        current_slot: int,
        current_master: int,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> PlanFields:
        """Arbitrate during ``current_slot``; the plan for ``current_slot + 1``.

        The simulator's per-slot entry: the plan as :data:`PlanFields`,
        with no record built.
        """

    def plan_slot(
        self,
        current_slot: int,
        current_master: int,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> SlotPlan:
        """:meth:`arbitrate`, with the plan as a :class:`SlotPlan` record."""
        plan = self.arbitrate(current_slot, current_master, queues_by_node)
        return self.plan_record(current_slot + 1, plan)

    def plan_record(self, transmit_slot: int, plan: PlanFields) -> SlotPlan:
        """``plan``, pending for ``transmit_slot``, as a :class:`SlotPlan`.

        How the simulator builds the record of a plan it holds as fields.
        This default attaches nothing; :class:`CcrEdfProtocol` attaches
        the arbitration record and wire packets of its last round when
        it traces them.
        """
        return SlotPlan(transmit_slot, *plan)

    def execute_grants(
        self, slot: int, transmissions: tuple[PlannedTransmission, ...]
    ) -> tuple[tuple[PlannedTransmission, ...], tuple[PlannedTransmission, ...]]:
        """Send one packet per grant in ``slot``: ``(transmitted, wasted)``.

        A grant whose message finished between plan and slot is wasted.
        Each grant carries its own message, so checking them all before
        recording any packet decides the same; when none is wasted the
        plan's tuple is handed on as it is.
        """
        transmitted = transmissions
        wasted: tuple[PlannedTransmission, ...] = ()
        for tx in transmitted:
            if tx.message.status in _FINISHED:
                wasted = tuple(
                    tx for tx in transmitted if tx.message.status in _FINISHED
                )
                transmitted = tuple(
                    tx for tx in transmitted if tx.message.status not in _FINISHED
                )
                break
        for tx in transmitted:
            tx.message.record_sent_packet(slot)
        return transmitted, wasted

    def execute_plan(self, plan: SlotPlan) -> SlotOutcome:
        """Carry out the planned transmissions (:meth:`execute_grants`)."""
        slot = plan.transmit_slot
        transmitted, wasted = self.execute_grants(slot, plan.transmissions)
        return SlotOutcome(
            slot=slot,
            master=plan.master,
            gap_s=plan.gap_s,
            transmitted=transmitted,
            wasted=wasted,
        )


class CcrEdfProtocol(MacProtocol):
    """The paper's protocol: TCMA two-phase arbitration + EDF hand-over.

    Parameters
    ----------
    topology:
        The ring.
    mapping:
        Laxity-to-priority mapping (default: the paper's logarithmic map).
    arbiter:
        Grant-sweep configuration (default: spatial reuse on).
    handover:
        Clock hand-over strategy.  The default :class:`EdfHandover` gives
        CCR-EDF proper; passing :class:`RoundRobinHandover` yields the
        "global EDF arbitration on a simple-clocking ring" hybrid used as
        an ablation baseline.
    policy:
        The :class:`~repro.core.policy.SchedulingPolicy` (or its registry
        name) deciding queue order and the 5-bit priority encoding.  The
        default is EDF -- the paper's protocol; ``"rm"`` / ``"fifo"``
        re-use the identical arbitration machinery with a rate / release-
        order encoding (the scheduler-zoo head-to-head study).
    """

    def __init__(
        self,
        topology: RingTopology,
        mapping: LaxityMapping | None = None,
        arbiter: Arbiter | None = None,
        handover: ClockHandoverStrategy | None = None,
        trace_packets: bool = False,
        policy: "SchedulingPolicy | str | None" = None,
    ) -> None:
        super().__init__(topology)
        self.mapping = mapping if mapping is not None else LogarithmicMapping()
        self.arbiter = arbiter if arbiter is not None else Arbiter(spatial_reuse=True)
        self.handover = handover if handover is not None else EdfHandover()
        self.trace_packets = trace_packets
        # Under trace_packets, the last round's (arbitration result,
        # collection packet, distribution packet) for plan_record.
        self._traced: tuple[
            ArbitrationResult, CollectionPacket, DistributionPacket
        ] | None = None
        self._edf_handover = isinstance(self.handover, EdfHandover)
        self.policy = resolve_policy(policy)
        # EDF keeps its dedicated fast path in compose_request (below):
        # the default policy must stay bit-identical *and* cost-identical
        # to the pre-policy protocol.
        self._edf_policy = type(self.policy) is EdfPolicy
        # Priority levels memoised per (policy cache token, class): for
        # EDF the token is the laxity (a pure function of it recurs every
        # slot), for RM the period, for FIFO the age.
        self._prio_cache: dict[tuple[int, TrafficClass], int] = {}
        # Last composed request per node: (head message, priority,
        # request, planned transmission).  Valid while the queue head and
        # its priority bucket are unchanged -- the common case, since the
        # logarithmic map changes bucket only when the laxity crosses a
        # power of two.  A grant or denial of the head reuses its planned
        # transmission, which depends on the head alone.
        self._compose_cache: dict[
            int, tuple[Message, int, CollectionRequest, PlannedTransmission]
        ] = {}

    @property
    def idle_plan_is_stationary(self) -> bool:
        """With EDF hand-over an all-idle slot keeps the master (gap 0),
        and so does the highest-priority requester once it holds the
        clock, while no request changes priority."""
        return self._edf_handover

    def busy_plan_repeats_until(
        self,
        transmit_slot: int,
        plan: PlanFields,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> int | None:
        """Under EDF, the slot the first waiting head leaves its bucket.

        A granted message keeps a constant laxity (its deadline and its
        remaining work both shrink by one slot per slot), so its priority
        holds.  A waiting head's laxity shrinks by one per slot, but its
        mapped priority moves only when the laxity drops below its
        bucket's lower end: a head planned at laxity ``x`` in a bucket
        starting at ``lo`` keeps its priority through ``x - lo`` more
        arbitrations.  Non-real-time heads never move.  Other policies
        keep the lone-requester rule: FIFO's age-based priority moves the
        granted heads too.
        """
        if not self._edf_policy:
            return super().busy_plan_repeats_until(
                transmit_slot, plan, queues_by_node
            )
        _, _, transmissions, _, n_requests = plan
        waiting = n_requests - len(transmissions)
        if not waiting:
            return None
        granted = {tx.node for tx in transmissions}
        slot = transmit_slot
        mapping = self.mapping
        until = None
        for node, queues in queues_by_node.items():
            if node in granted:
                continue
            msg = queues.head()
            if msg is None:
                continue
            # The plan was arbitrated in the slot before it transmits.
            laxity = msg.laxity(slot - 1)
            if laxity is not None:
                tc = msg.traffic_class
                lo = mapping.bucket_bounds(
                    mapping.priority_for(laxity, tc), tc
                )[0]
                if lo is not None:
                    leaves = slot + laxity - lo
                    if until is None or leaves < until:
                        until = leaves
            waiting -= 1
            if not waiting:
                break
        return until

    @property
    def queue_policy(self) -> "SchedulingPolicy | None":
        """The policy, when it orders queues differently from EDF."""
        return None if self._edf_policy else self.policy

    # ------------------------------------------------------------------

    def compose_request(
        self, queues: NodeQueues, current_slot: int
    ) -> tuple[CollectionRequest, Message | None]:
        """Build one node's collection-phase request from its queue heads.

        The node requests its locally highest-priority message: the class
        precedence rule picks the queue, the laxity mapping computes the
        5-bit priority, and the ring path of the message fills the link
        reservation and destination fields (Figure 4).

        Composition is incremental: the request built for this node last
        slot is reused as long as the queue head and its mapped priority
        are unchanged, so steady-state slots recompute only the laxity.
        """
        composed = self._compose(queues, current_slot)
        if composed is None:
            return CollectionRequest.empty(), None
        return composed[2], composed[0]

    def _compose(
        self, queues: NodeQueues, current_slot: int
    ) -> tuple[Message, int, CollectionRequest, PlannedTransmission] | None:
        """:meth:`compose_request` as the node's cache entry ``(head,
        priority, request, planned transmission)``; None when idle."""
        msg = queues.head()
        if msg is None:
            return None
        traffic_class = msg.traffic_class
        if traffic_class is TrafficClass.NON_REAL_TIME:
            priority = PRIO_NON_REAL_TIME
        elif self._edf_policy:
            laxity = msg.laxity(current_slot)
            assert laxity is not None  # deadline classes always have one
            if laxity < 0:
                # Late: a new laxity every slot, one level by the
                # priority_for contract -- one key keeps the cache bounded.
                laxity = -1
            prio_key = (laxity, traffic_class)
            priority = self._prio_cache.get(prio_key)
            if priority is None:
                priority = self.mapping.priority_for(laxity, traffic_class)
                self._prio_cache[prio_key] = priority
        else:
            token = self.policy.cache_token(msg, current_slot)
            prio_key = (token, traffic_class)
            priority = self._prio_cache.get(prio_key)
            if priority is None:
                priority = self.policy.request_priority(
                    msg, current_slot, self.mapping, traffic_class
                )
                self._prio_cache[prio_key] = priority
        node = queues.node
        cached = self._compose_cache.get(node)
        if cached is not None and cached[0] is msg:
            if cached[1] == priority:
                return cached
            planned = cached[3]
        else:
            planned = None
        links, destinations = self.route_masks(msg.source, msg.destinations)
        if planned is None:
            planned = PlannedTransmission(
                node=node, message=msg, links=links, destinations=msg.destinations
            )
        cached = (
            msg,
            priority,
            CollectionRequest(
                priority=priority, links=links, destinations=destinations
            ),
            planned,
        )
        self._compose_cache[node] = cached
        return cached

    def plan_record(self, transmit_slot: int, plan: PlanFields) -> SlotPlan:
        """``plan`` with the last round's arbitration record and wire
        packets when tracing them (a collection-lost or fault-rewritten
        plan keeps the round's record)."""
        traced = self._traced if self.trace_packets else None
        if traced is None:
            return SlotPlan(transmit_slot, *plan)
        return SlotPlan(transmit_slot, *plan, *traced)

    def arbitrate(
        self,
        current_slot: int,
        current_master: int,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> PlanFields:
        """Collection phase, grant sweep and hand-over, record-free.

        Under ``trace_packets`` the round's arbitration record and wire
        packets are built from the same sweep and kept for
        :meth:`plan_record`.
        """
        n = self.topology.n_nodes
        self._check_queues(queues_by_node)

        # --- collection phase: each node appends its request ----------
        # Keep only the non-empty requests the master would process, one
        # sweep key each (Arbiter.grant_sweep); the composed entries stay
        # in the compose cache, keyed by node.  The sweep sorts by
        # (-priority, node), so the order nodes are visited in -- mapping
        # order here, append order on the wire -- decides nothing.  A
        # queue whose head memo already says "no live message" would
        # compose the empty request without side effects, so it is
        # skipped on that one test.
        compose = self._compose
        keys: list[int] = []
        links = [0] * n
        for node, queues in queues_by_node.items():
            if queues._cached_head is None and queues._head_valid:
                continue
            composed = compose(queues, current_slot)
            if composed is not None:
                keys.append(composed[1] * n + (n - 1 - node))
                links[node] = composed[3].links

        # --- master processes the requests ----------------------------
        break_mask: int | None = None
        if self._edf_handover:
            # The next master is the sweep's hp node (the current master
            # keeps the clock when nobody requests).
            next_master = current_master
        else:
            # Fixed hand-over (e.g. round-robin): the next master is known
            # before arbitration, so the break location is too.
            provisional = ArbitrationResult(
                master=current_master, grants=(), hp_node=current_master
            )
            next_master = self.handover.next_master(
                self.topology, current_master, provisional
            )
            break_mask = 1 << self.arbiter.break_link(n, next_master)
        if not keys:
            if self.trace_packets:
                self._traced = self._trace(
                    current_master, keys, current_master, [], ()
                )
            return (
                next_master,
                self._handover_gap(current_master, next_master),
                (),
                (),
                0,
            )
        hp_node, granted, denied = self.arbiter.grant_sweep(
            n, keys, links, break_mask
        )
        if self._edf_handover:
            next_master = hp_node

        # --- distribution phase & hand-over ----------------------------
        cache = self._compose_cache
        transmissions = tuple([cache[node][3] for node in granted])
        denied_txs = tuple([cache[node][3] for node in denied]) if denied else ()
        if denied_txs and self.observer is not None:
            self.observer.emit_fields(
                ArbitrationDenied, current_slot + 1, tuple(denied)
            )
        if self.trace_packets:
            self._traced = self._trace(
                current_master, keys, hp_node, granted, tuple(denied)
            )
        return (
            next_master,
            self._handover_gap(current_master, next_master),
            transmissions,
            denied_txs,
            len(keys),
        )

    def _handover_gap(self, current_master: int, next_master: int) -> float:
        """The hand-over gap of one (master, next master) pair, memoised."""
        gap_key = (current_master, next_master)
        gap_s = self._gap_cache.get(gap_key)
        if gap_s is None:
            gap_s = self.handover.gap_s(self.topology, current_master, next_master)
            self._gap_cache[gap_key] = gap_s
        return gap_s

    def _trace(
        self,
        current_master: int,
        keys: list[int],
        hp_node: int,
        granted: list[int],
        denied: tuple[int, ...],
    ) -> tuple[ArbitrationResult, CollectionPacket, DistributionPacket]:
        """One round's arbitration record and its exact Figure 4 and
        Figure 5 packets, from the sweep (``trace_packets=True`` only)."""
        n = self.topology.n_nodes
        cache = self._compose_cache
        requests = {
            node: cache[node][2] for node in (n - 1 - key % n for key in keys)
        }
        empty = CollectionRequest.empty()
        ordered = [
            requests.get((current_master + d) % n, empty) for d in range(1, n)
        ]
        ordered.append(requests.get(current_master, empty))
        packet = CollectionPacket(
            n_nodes=n, master=current_master, requests=tuple(ordered)
        )
        result = ArbitrationResult(
            master=current_master,
            grants=tuple(Grant(node=node, request=requests[node]) for node in granted),
            hp_node=hp_node,
            denied_by_break=denied,
        )
        return result, packet, self.arbiter.build_distribution_packet(packet, result)
