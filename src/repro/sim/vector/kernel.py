"""Event-driven slot kernel with bit-identical oracle parity.

The oracle (:class:`repro.sim.engine.Simulation`) re-derives the full
collection/arbitration/hand-over pipeline from the object graph every
slot.  This kernel produces *bit-identical* reports, metric registries
and event streams by exploiting two protocol facts:

* **Plan stationarity** -- the slot plan only changes when a node's queue
  head changes (release beating the head, delivery, drop) or when a
  head's mapped priority bucket expires.  A head that is granted every
  slot has *constant* laxity (Figure 3: the deadline nears by one slot
  per slot, but so does the remaining transmission time), so steady
  state re-plans nothing.  The kernel tracks, per node, the last
  planning slot ``prio_until`` for which the cached priority is exact
  and only re-arbitrates when a head or bucket actually changes.

* **Batched advancement** -- between "interesting" events (releases,
  deadline expiries, priority-bucket crossings, deliveries) every slot
  is an exact repetition, so the kernel advances K slots at a time.
  Idle spans reproduce the oracle's fast-forward (including its
  ``FastForwardSpan`` events and span boundaries); *busy* spans batch
  the repeated loaded slot as well.  The oracle batches busy spans only
  for a lone granted master; this kernel also batches several
  concurrent grants, bounding the span by priority-bucket expiry and
  drop-late as well.  Float accumulators are advanced by the same
  repeated additions the oracle performs, never by multiplication, so
  totals match bit-for-bit.

Interesting-event bookkeeping is heap-based: a release heap keyed by
each source's ``next_release_slot`` contract and a conservative
drop-late heap keyed by the earliest slot a message *could* go late
(its deadline minus its full remaining service time; re-inserted at the
recomputed slot when it was granted meanwhile).

Arbitration itself reduces over the packed priority field of
:mod:`repro.sim.vector.soa`: descending order over ``packed`` equals the
oracle's ``(-priority, node)`` sort, evaluated with the interpreter
``sorted`` on small rings and a numpy masked argsort on large ones.

The kernel only runs for configurations whose semantics it replicates
exactly; :class:`repro.sim.vector.engine.VectorSimulation` falls back to
the oracle otherwise (see ``_fallback_reason``).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from typing import TYPE_CHECKING

from repro.core.mapping import LinearMapping, LogarithmicMapping
from repro.core import messages as _messages
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import (
    PRIO_NON_REAL_TIME,
    TrafficClass,
    class_priority_range,
)
from repro.core.protocol import PlannedTransmission, SlotOutcome, SlotPlan
from repro.obs.events import ArbitrationDenied, FastForwardSpan, HandoverOccurred
from repro.sim.metrics import ConnectionStats
from repro.traffic.periodic import ConnectionSource
from repro.sim.vector.soa import (
    PACKED_NODE_MASK,
    PACKED_PRIO_SHIFT,
    PRIO_UNTIL_FOREVER,
    VECTOR_SWEEP_MIN_NODES,
    SoAState,
    arbitration_order,
    release_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Shared read-only empty list for the (common) no-denials plan slots.
_EMPTY_LIST: list = []

#: Slots covered per precomputed release-schedule chunk.  Bounds the
#: schedule's memory to the traffic of one window regardless of how many
#: slots a single ``run()`` spans.
_SCHED_CHUNK: int = 1 << 15


class _PlanView:
    """Minimal stand-in for the next ``SlotPlan`` handed to event sinks.

    Sinks only read ``n_requests`` from the next plan (packet traces,
    which read more, force the oracle engine), so the kernel reuses one
    mutable view instead of materialising a ``SlotPlan`` per slot.
    """

    __slots__ = ("n_requests",)

    def __init__(self) -> None:
        self.n_requests = 0


def run_kernel(sim: Simulation, n_slots: int) -> None:
    """Advance ``sim`` by ``n_slots`` slots, bit-identical to stepping.

    Mutates the simulation in place exactly as ``n_slots`` calls of
    ``Simulation.step()`` (with the engine's idle fast-forward) would:
    same report, same emitted events, same pending
    plan afterwards.  Eligibility must be established by the caller.
    """
    protocol = sim.protocol
    topology = sim.topology
    n = topology.n_nodes
    queues = sim.queues
    mapping = protocol.mapping
    arbiter = protocol.arbiter
    spatial_reuse = arbiter.spatial_reuse
    max_grants = arbiter.max_grants
    metrics = sim.metrics
    report = metrics.report
    observer = sim.observer
    profiler = sim.profiler
    drop_late_on = sim.drop_late
    ff_enabled = sim.fast_forward
    slot_length = sim.timing.slot_length_s
    sources = sim.sources
    route_masks = protocol.route_masks
    prio_cache = protocol._prio_cache
    on_release = metrics.on_release
    on_drop = metrics.on_drop
    per_class = report.per_class
    per_connection = report.per_connection

    DELIVERED = MessageStatus.DELIVERED
    DROPPED = MessageStatus.DROPPED
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    PENDING = MessageStatus.PENDING
    NRT = TrafficClass.NON_REAL_TIME
    RT = TrafficClass.RT_CONNECTION
    INF = PRIO_UNTIL_FOREVER
    NODE_MASK = PACKED_NODE_MASK

    be_lo, be_hi = class_priority_range(TrafficClass.BEST_EFFORT)
    rt_lo, rt_hi = class_priority_range(RT)
    log_map = type(mapping) is LogarithmicMapping
    lin_map = type(mapping) is LinearMapping
    horizon = mapping.horizon_slots if lin_map else 0
    rt_sat = (1 << (rt_hi - rt_lo)) - 1
    log2 = math.log2
    msg_new = Message.__new__
    # Resolved at run time: the compiled kernel's glue rebinds the module
    # counter when it reserves an id block, and this must see the rebind.
    next_mid = _messages._message_ids.__next__
    # Grant limit is configuration-constant: one without spatial reuse,
    # else max_grants (a huge stand-in == "every requester" -- at most
    # one grant per active node is possible anyway).
    limit = 1 if not spatial_reuse else (max_grants or 1 << 30)
    # Hand-over gaps as the topology's flat (master, next) table: cheaper
    # than the oracle's tuple-keyed dict on the replan path, same values
    # (the engine admits only the plain EdfHandover, whose gap is Eq. 1).
    gap_flat = topology.handover_gap_table
    # Route link-mask per RT connection (routes are per-connection
    # constants; non-connection heads fall back to the shared cache).
    route_by_cid: dict[int, int] = {}
    rt_stats = per_class[RT]
    rt_lat_append = rt_stats.latencies_slots.append

    def _deliver(msg: Message, completed: int) -> bool:
        """Fold one delivery into the metrics (the oracle's
        ``on_delivery``, field updates in the same order).  Returns
        whether the deadline was missed."""
        tc = msg.traffic_class
        cls_stats = rt_stats if tc is RT else per_class[tc]
        cls_stats.delivered += 1
        latency = completed - msg.created_slot + 1
        if cls_stats is rt_stats:
            rt_lat_append(latency)
        else:
            cls_stats.latencies_slots.append(latency)
        deadline = msg.deadline_slot
        missed = False
        if deadline is not None:
            if completed <= deadline:
                cls_stats.deadline_met += 1
            else:
                missed = True
                cls_stats.deadline_missed += 1
                if metrics.fault_window_active:
                    cls_stats.deadline_missed_in_fault_window += 1
        cid = msg.connection_id
        if cid is not None:
            cstat = per_connection.get(cid)
            if cstat is None:
                cstat = per_connection[cid] = ConnectionStats(cid)
            cstat.delivered += 1
            cstat.latencies_slots.append(latency)
            if deadline is not None:
                if missed:
                    cstat.deadline_missed += 1
                else:
                    cstat.deadline_met += 1
        return missed

    wants_events = observer is not None and observer.wants_slot_events
    plan_view = _PlanView()

    s = sim.current_slot
    end = s + n_slots
    prev_master = sim._prev_master

    # --- struct-of-arrays node state (scalar mirrors for the hot loop) --
    soa = SoAState(n)
    use_np_sweep = n >= VECTOR_SWEEP_MIN_NODES
    np_packed = soa.packed
    packed: list[int] = [0] * n
    prio_until: list[int] = [0] * n
    heads: list[Message | None] = [None] * n
    links: list[int] = [0] * n
    active: set[int] = set()
    dirty: list[int] = list(range(n))
    dirty_flags = bytearray(b"\x01") * n
    min_until = INF
    # Per-node (rt, be, nrt) heap triples: the dirty-node refresh below
    # inlines ``NodeQueues.head`` (same walk, same lazy discards, cache
    # left coherent) to skip the method call on the hottest path.
    heap3 = [(queues[i]._rt, queues[i]._be, queues[i]._nrt) for i in range(n)]

    def prio_and_until(msg: Message, now: int) -> tuple[int, int]:
        """Priority of ``msg`` at planning slot ``now`` plus the last
        planning slot at which that priority is still exact."""
        tc = msg.traffic_class
        if tc is NRT:
            return PRIO_NON_REAL_TIME, INF
        deadline = msg.deadline_slot
        assert deadline is not None  # deadline classes always have one
        lax = deadline - now - (msg.size_slots - msg.sent_slots) + 1
        if tc is RT:
            lo, hi = rt_lo, rt_hi
        else:
            lo, hi = be_lo, be_hi
        if lax <= 0:
            return hi, INF  # saturated urgent: laxity only shrinks
        if log_map:
            bucket = int(math.log2(lax + 1))
            prio = hi - bucket
            if prio <= lo:
                # Saturated low: exact while lax >= 2^(hi-lo) - 1.
                return lo, lax + now - ((1 << (hi - lo)) - 1)
            # Bucket b covers lax in [2^b - 1, 2^(b+1) - 2].
            return prio, lax + now - ((1 << bucket) - 1)
        if lin_map:
            levels = hi - lo + 1
            bucket = lax * levels // horizon
            prio = hi - bucket
            if prio <= lo:
                b_sat = hi - lo
                floor = -(-(b_sat * horizon) // levels)
                return lo, lax + now - floor
            if bucket == 0:
                return hi, INF  # most urgent already; stays as lax shrinks
            floor = -(-(bucket * horizon) // levels)
            return prio, lax + now - floor
        # Unknown mapping: compute via the shared oracle cache and
        # revalidate at the very next planning slot.  ``lax`` is positive
        # here (late heads returned above), so the cache never sees a
        # negative key; the oracle folds those into one.
        key = (lax, tc)
        prio = prio_cache.get(key)
        if prio is None:
            prio = mapping.priority_for(lax, tc)
            prio_cache[key] = prio
        return prio, now

    # --- release bookkeeping -------------------------------------------
    # Exact periodic sources are fully predictable, so their releases
    # are precomputed as one merged (slot, source-index) schedule per
    # ``_SCHED_CHUNK``-slot window -- a numpy ``arange`` per connection
    # plus one ``lexsort``, replacing all per-slot source polling.  Any
    # other source kind sends *all* sources to the generic
    # ``next_release_slot`` heap, because releases at the same slot must
    # be processed in source-list order across both mechanisms.
    all_exact = all(type(src) is ConnectionSource for src in sources)
    rel_heap: list[tuple[int, int]] = []
    sched_slots: list[int] = []
    sched_src: list[int] = []
    sched_ptr = 0
    sched_len = 0
    sched_next = INF
    if all_exact:
        sched_lo = s
        conns = [src.connection for src in sources]
        cstats: list[ConnectionStats | None] = [None] * len(sources)
        c_node = [c.source for c in conns]
        c_dest = [c.destinations for c in conns]
        c_size = [c.size_slots for c in conns]
        c_period = [c.period_slots for c in conns]
        c_reldl = [c.relative_deadline_slots for c in conns]
        c_cid = [c.connection_id for c in conns]
        c_queue = [queues[c.source] for c in conns]

        def _refill_sched() -> None:
            nonlocal sched_slots, sched_src, sched_ptr, sched_next, sched_lo
            nonlocal sched_len
            while sched_lo < end:
                lo = sched_lo
                hi = min(end, lo + _SCHED_CHUNK)
                sched_lo = hi
                slots, index = release_schedule(sources, lo, hi)
                if not len(slots):
                    continue
                sched_slots = slots.tolist()
                sched_src = index.tolist()
                sched_ptr = 0
                sched_len = len(sched_slots)
                sched_next = sched_slots[0]
                return
            sched_next = INF

        _refill_sched()
    else:
        # Pops in (slot, index) order == the oracle's source-list order.
        for idx, src in enumerate(sources):
            nxt = src.next_release_slot(s)
            if nxt is not None:
                heappush(rel_heap, (nxt if nxt > s else s, idx))
    # Conservative drop-late heap: (earliest slot the message could be
    # late, msg_id, message).  Lazily purged / re-keyed on pop.
    drop_heap: list[tuple[int, int, Message]] = []
    if drop_late_on:
        for i in range(n):
            for msg in queues[i].pending_messages():
                deadline = msg.deadline_slot
                if deadline is not None:
                    heappush(
                        drop_heap,
                        (
                            deadline - (msg.size_slots - msg.sent_slots) + 2,
                            msg.msg_id,
                            msg,
                        ),
                    )

    # --- pending plan (decided last slot, executes first) --------------
    plan = sim._plan
    p_master = plan.master
    p_gap = plan.gap_s
    p_tx_nodes = [tx.node for tx in plan.transmissions]
    p_tx_msgs = [tx.message for tx in plan.transmissions]
    p_tx_links = [tx.links for tx in plan.transmissions]
    # Plan buffers alternate between the live plan and a spare set that
    # the replan path refills in place, so steady state allocates no new
    # lists.  Nothing outside the kernel holds a reference to either:
    # the plan handed back on exit is rebuilt as PlannedTransmission
    # tuples from whichever lists are then current.
    spare_nodes: list[int] = []
    spare_msgs: list[Message] = []
    spare_links: list[int] = []
    reusable_d: list[int] = []
    p_tx_objs = plan.transmissions
    p_denied = tuple(tx.node for tx in plan.denied_by_break)
    p_denied_msgs = [tx.message for tx in plan.denied_by_break]
    p_denied_links = [tx.links for tx in plan.denied_by_break]
    p_nreq = plan.n_requests
    if p_tx_msgs:
        rem_min = INF
        for m in p_tx_msgs:
            r = m.size_slots - m.sent_slots
            if r < rem_min:
                rem_min = r
        deliver_at = s + rem_min - 1
    else:
        deliver_at = INF
    # A stationary idle plan needs no re-arbitration until traffic
    # appears -- the state the oracle's fast-forward exploits.  Any other
    # pending plan forces a re-plan on the first slot, exactly when the
    # oracle (whose fast-forward refuses such plans) would re-plan.
    replan_needed = not (
        p_nreq == 0
        and not p_tx_msgs
        and not p_denied
        and p_gap == 0.0
        and p_master == prev_master
    )

    # --- accounting (folded into the report at exit) --------------------
    wall = report.wall_time_s
    slot_t = report.slot_time_s
    gap_t = report.gap_time_s
    slots_acc = 0
    busy_acc = 0
    packets_acc = 0
    wasted_acc = 0
    denial_acc = 0
    master_count = [0] * n
    hop_count = [0] * n

    while s < end:
        # ---- span batching: nothing interesting before `bound` --------
        if (
            not replan_needed
            and min_until >= s
            and p_gap == 0.0
            and p_master == prev_master
        ):
            idle = p_nreq == 0
            if observer is None or (idle and ff_enabled):
                bound = end
                if all_exact:
                    if sched_next < bound:
                        bound = sched_next
                elif rel_heap and rel_heap[0][0] < bound:
                    bound = rel_heap[0][0]
                if not idle:
                    # The oracle's fast-forward never consults queues,
                    # so only busy spans bound on drops, bucket expiry
                    # and the first delivery.
                    while drop_heap:
                        st = drop_heap[0][2].status
                        if st is DELIVERED or st is DROPPED:
                            heappop(drop_heap)
                            continue
                        if drop_heap[0][0] < bound:
                            bound = drop_heap[0][0]
                        break
                    if min_until + 1 < bound:
                        bound = min_until + 1
                    if deliver_at < bound:
                        bound = deliver_at
                k = bound - s
                if k > 0:
                    if idle:
                        # The oracle's fast-forward span, bit for bit.
                        for _ in repeat(None, k):
                            wall += slot_length
                            slot_t += slot_length
                        slots_acc += k
                        master_count[p_master] += k
                        hop_count[0] += k
                        if ff_enabled:
                            if profiler is not None:
                                profiler.count("fast_forwarded_slots", k)
                            if observer is not None:
                                observer.emit(
                                    FastForwardSpan(
                                        slot_start=s,
                                        slot_end=s + k,
                                        n_slots=k,
                                        master=p_master,
                                    )
                                )
                        s += k
                        continue
                    # Busy span: the same loaded slot repeated k times.
                    n_tx = len(p_tx_msgs)
                    for j in range(n_tx):
                        msg = p_tx_msgs[j]
                        msg.sent_slots += k
                        msg.status = IN_TRANSIT
                        prio_until[p_tx_nodes[j]] += k
                    busy_acc += k
                    packets_acc += n_tx * k
                    if p_denied:
                        denial_acc += len(p_denied) * k
                    for _ in repeat(None, k):
                        wall += slot_length
                        slot_t += slot_length
                    slots_acc += k
                    master_count[p_master] += k
                    hop_count[0] += k
                    s += k
                    continue

        # ---- scalar slot ----------------------------------------------
        ev0 = ev1 = ev2 = ev3 = 0

        # (a) traffic release
        while sched_next <= s:
            # Scheduled exact release: the oracle's poll -> validate ->
            # enqueue -> account chain, inlined and specialised for a
            # known-valid periodic RT-connection message.
            idx = sched_src[sched_ptr]
            deadline = s + c_reldl[idx]
            node = c_node[idx]
            size = c_size[idx]
            # Construct the message directly (the dataclass constructor
            # plus its validation, bypassed): every field of a periodic
            # connection release was validated when the connection was
            # built, and the id counter is consumed exactly as the
            # constructor would.
            msg = msg_new(Message)
            msg.source = node
            msg.destinations = c_dest[idx]
            msg.traffic_class = RT
            msg.size_slots = size
            msg.created_slot = s
            msg.deadline_slot = deadline
            msg.period_slots = c_period[idx]
            msg.connection_id = c_cid[idx]
            msg.msg_id = mid = next_mid()
            msg.sent_slots = 0
            msg.status = PENDING
            msg.completed_slot = None
            q = c_queue[idx]
            heappush(q._rt, (deadline, mid, msg))
            q._head_valid = False
            rt_stats.released += 1
            cs = cstats[idx]
            if cs is None:
                cid = c_cid[idx]
                cs = per_connection.get(cid)
                if cs is None:
                    cs = per_connection[cid] = ConnectionStats(cid)
                cstats[idx] = cs
            cs.released += 1
            ev0 += 1
            if drop_late_on:
                heappush(drop_heap, (deadline - size + 2, mid, msg))
            if dirty_flags[node]:
                replan_needed = True
            else:
                head = heads[node]
                # A fresh message has the globally largest msg_id, so it
                # only beats an RT head on a strictly earlier deadline.
                if (
                    head is None
                    or head.traffic_class is not RT
                    or deadline < head.deadline_slot
                ):
                    dirty_flags[node] = 1
                    dirty.append(node)
                    replan_needed = True
            sched_ptr += 1
            if sched_ptr < sched_len:
                sched_next = sched_slots[sched_ptr]
            else:
                _refill_sched()
        while rel_heap and rel_heap[0][0] <= s:
            _, idx = heappop(rel_heap)
            src = sources[idx]
            for msg in src.messages_for_slot(s):
                if msg.source != src.node or msg.created_slot != s:
                    raise ValueError(
                        f"source at node {src.node} produced an "
                        f"inconsistent message (source={msg.source}, "
                        f"created_slot={msg.created_slot}, slot={s})"
                    )
                node = msg.source
                queues[node].enqueue(msg)
                on_release(msg)
                ev0 += 1
                deadline = msg.deadline_slot
                if drop_late_on and deadline is not None:
                    heappush(
                        drop_heap,
                        (deadline - msg.size_slots + 2, msg.msg_id, msg),
                    )
                if dirty_flags[node]:
                    replan_needed = True
                else:
                    head = heads[node]
                    if head is None:
                        dirty_flags[node] = 1
                        dirty.append(node)
                        replan_needed = True
                    else:
                        tc = msg.traffic_class
                        htc = head.traffic_class
                        if tc > htc or (
                            tc == htc
                            and tc is not NRT
                            and (deadline, msg.msg_id)
                            < (head.deadline_slot, head.msg_id)
                        ):
                            dirty_flags[node] = 1
                            dirty.append(node)
                            replan_needed = True
            nxt = src.next_release_slot(s + 1)
            if nxt is not None:
                heappush(rel_heap, (nxt if nxt > s else s + 1, idx))

        # (b) drop-late policy
        if drop_late_on:
            while drop_heap and drop_heap[0][0] <= s:
                entry = drop_heap[0]
                dmsg = entry[2]
                st = dmsg.status
                if st is DELIVERED or st is DROPPED:
                    heappop(drop_heap)
                    continue
                deadline = dmsg.deadline_slot
                assert deadline is not None
                late_at = deadline - (dmsg.size_slots - dmsg.sent_slots) + 2
                if late_at > s:
                    # Was granted meanwhile; re-key at the exact slot.
                    heapreplace(drop_heap, (late_at, entry[1], dmsg))
                    continue
                heappop(drop_heap)
                dmsg.status = DROPPED
                on_drop(dmsg)
                ev3 += 1
                ev2 += 1  # drop-late messages always carry a deadline
                node = dmsg.source
                if dirty_flags[node]:
                    replan_needed = True
                elif dmsg is heads[node]:
                    dirty_flags[node] = 1
                    dirty.append(node)
                    replan_needed = True

        # (c) execute the pending plan
        wasted_idx: list[int] | None = None
        n_tx = len(p_tx_msgs)
        if n_tx == 1:
            # Single-grant plans dominate loaded rings; skip the loop.
            msg = p_tx_msgs[0]
            st = msg.status
            if st is DROPPED or st is DELIVERED:
                # Grant went stale (dropped between plan and slot).
                if observer is not None:
                    wasted_idx = [0]
                wasted_acc += 1
            else:
                remaining = msg.size_slots - msg.sent_slots
                msg.sent_slots += 1
                if remaining == 1:
                    msg.status = DELIVERED
                    msg.completed_slot = s
                    if _deliver(msg, s):
                        ev2 += 1
                    ev1 += 1
                    node = p_tx_nodes[0]
                    if not dirty_flags[node]:
                        dirty_flags[node] = 1
                        dirty.append(node)
                    replan_needed = True
                else:
                    msg.status = IN_TRANSIT
                    # Granted every slot => constant laxity (Figure 3):
                    # the cached priority stays exact one slot longer.
                    prio_until[p_tx_nodes[0]] += 1
                busy_acc += 1
                packets_acc += 1
        elif n_tx:
            eff_tx = n_tx
            for j, msg in enumerate(p_tx_msgs):
                st = msg.status
                if st is DROPPED or st is DELIVERED:
                    # Grant went stale (dropped between plan and slot).
                    eff_tx -= 1
                    if observer is not None:
                        if wasted_idx is None:
                            wasted_idx = [j]
                        else:
                            wasted_idx.append(j)
                    continue
                remaining = msg.size_slots - msg.sent_slots
                msg.sent_slots += 1
                if remaining == 1:
                    msg.status = DELIVERED
                    msg.completed_slot = s
                    if _deliver(msg, s):
                        ev2 += 1
                    ev1 += 1
                    node = p_tx_nodes[j]
                    if not dirty_flags[node]:
                        dirty_flags[node] = 1
                        dirty.append(node)
                    replan_needed = True
                else:
                    msg.status = IN_TRANSIT
                    # Granted every slot => constant laxity (Figure 3):
                    # the cached priority stays exact one slot longer.
                    prio_until[p_tx_nodes[j]] += 1
            if eff_tx:
                busy_acc += 1
                packets_acc += eff_tx
            wasted_acc += n_tx - eff_tx
        if p_denied:
            denial_acc += len(p_denied)

        # (d) per-slot accounting
        if p_gap:
            wall += slot_length + p_gap
            gap_t += p_gap
        else:
            wall += slot_length
        slot_t += slot_length
        slots_acc += 1
        master_count[p_master] += 1
        if p_master == prev_master:
            hop_count[0] += 1
        else:
            hop_count[(p_master - prev_master) % n] += 1

        # (e) plan the next slot (arbitrate at slot s for slot s + 1)
        replan = replan_needed or min_until < s
        if replan:
            for i in dirty:
                dirty_flags[i] = 0
                msg = None
                for heap in heap3[i]:
                    while heap:
                        c = heap[0][2]
                        st = c.status
                        if st is DELIVERED or st is DROPPED:
                            heappop(heap)
                            continue
                        msg = c
                        break
                    if msg is not None:
                        break
                q = queues[i]
                q._cached_head = msg
                q._head_valid = True
                heads[i] = msg
                if msg is None:
                    if packed[i]:
                        packed[i] = 0
                        if use_np_sweep:
                            np_packed[i] = 0
                        active.discard(i)
                    continue
                active.add(i)
                # Inline of ``prio_and_until`` for the dominant case (an
                # RT head under the logarithmic mapping); identical
                # arithmetic, closure call elided.
                if log_map and msg.traffic_class is RT:
                    lax = (
                        msg.deadline_slot
                        - s
                        - (msg.size_slots - msg.sent_slots)
                        + 1
                    )
                    if lax <= 0:
                        prio = rt_hi
                        until = INF
                    else:
                        bucket = int(log2(lax + 1))
                        prio = rt_hi - bucket
                        if prio <= rt_lo:
                            prio = rt_lo
                            until = lax + s - rt_sat
                        else:
                            until = lax + s - ((1 << bucket) - 1)
                else:
                    prio, until = prio_and_until(msg, s)
                prio_until[i] = until
                pk = (prio << PACKED_PRIO_SHIFT) | (NODE_MASK - i)
                packed[i] = pk
                if use_np_sweep:
                    np_packed[i] = pk
                cid = msg.connection_id
                if cid is not None:
                    lk = route_by_cid.get(cid)
                    if lk is None:
                        lk = route_masks(msg.source, msg.destinations)[0]
                        route_by_cid[cid] = lk
                    links[i] = lk
                else:
                    links[i] = route_masks(msg.source, msg.destinations)[0]
            dirty.clear()
            replan_needed = False
            if min_until < s:
                # Some cached priority bucket expired: refresh it.
                for i in active:
                    if prio_until[i] < s:
                        msg = heads[i]
                        prio, until = prio_and_until(msg, s)
                        prio_until[i] = until
                        pk = (prio << PACKED_PRIO_SHIFT) | (NODE_MASK - i)
                        packed[i] = pk
                        if use_np_sweep:
                            np_packed[i] = pk

            # Reuse the spare plan buffers (recycled from the plan
            # retired at the last rotation) instead of allocating.
            g_nodes = spare_nodes
            g_msgs = spare_msgs
            g_links = spare_links
            d_nodes = reusable_d
            d_nodes.clear()
            n_active = len(active)
            if n_active:
                if use_np_sweep:
                    ordered = arbitration_order(np_packed)
                else:
                    ordered = sorted(
                        active, key=packed.__getitem__, reverse=True
                    )
                hp = ordered[0]
                break_mask = 1 << ((hp - 1) % n)
                occupied = 0
                mu = INF
                rem_min = INF
                if limit > n_active:
                    # The grant limit cannot bind (at most one grant per
                    # active node), so the sweep visits every active
                    # node -- fold the min-priority-expiry and earliest-
                    # delivery bounds into the same pass.
                    for node in ordered:
                        u = prio_until[node]
                        if u < mu:
                            mu = u
                        lk = links[node]
                        if lk == 0:
                            continue
                        if lk & break_mask:
                            d_nodes.append(node)
                            continue
                        if occupied & lk:
                            continue
                        head = heads[node]
                        g_nodes.append(node)
                        g_msgs.append(head)
                        g_links.append(lk)
                        occupied |= lk
                        r = head.size_slots - head.sent_slots
                        if r < rem_min:
                            rem_min = r
                else:
                    granted = 0
                    for node in ordered:
                        if granted >= limit:
                            break
                        lk = links[node]
                        if lk == 0:
                            continue
                        if lk & break_mask:
                            d_nodes.append(node)
                            continue
                        if occupied & lk:
                            continue
                        head = heads[node]
                        g_nodes.append(node)
                        g_msgs.append(head)
                        g_links.append(lk)
                        occupied |= lk
                        granted += 1
                        r = head.size_slots - head.sent_slots
                        if r < rem_min:
                            rem_min = r
                    for i in active:
                        u = prio_until[i]
                        if u < mu:
                            mu = u
                q_master = hp
                q_gap = gap_flat[p_master * n + hp]
            else:
                q_master = p_master
                q_gap = 0.0
                mu = INF
                rem_min = INF
            if d_nodes:
                q_denied = tuple(d_nodes)
                q_denied_msgs = [heads[i] for i in d_nodes]
                q_denied_links = [links[i] for i in d_nodes]
            else:
                # Shared immutable empties: denied lists are never
                # mutated, only read back when the plan is rebuilt.
                q_denied = ()
                q_denied_msgs = _EMPTY_LIST
                q_denied_links = _EMPTY_LIST
            q_nreq = n_active
            if observer is not None:
                q_tx_objs: tuple[PlannedTransmission, ...] = tuple(
                    PlannedTransmission(
                        node=g_nodes[j],
                        message=g_msgs[j],
                        links=g_links[j],
                        destinations=g_msgs[j].destinations,
                    )
                    for j in range(len(g_nodes))
                )
            else:
                q_tx_objs = ()
            min_until = mu
            deliver_at = s + rem_min if g_msgs else INF
            next_denied = q_denied
            next_nreq = q_nreq
        else:
            next_denied = p_denied
            next_nreq = p_nreq

        # (f) event emission, in the oracle's per-slot order
        if observer is not None:
            if next_denied:
                observer.emit(
                    ArbitrationDenied(slot=s + 1, nodes=next_denied)
                )
            if p_master != prev_master:
                observer.emit(
                    HandoverOccurred(
                        slot=s,
                        from_node=prev_master,
                        to_node=p_master,
                        hops=(p_master - prev_master) % n,
                        gap_s=p_gap,
                    )
                )
            if wants_events:
                if wasted_idx is None:
                    transmitted = p_tx_objs
                    wasted: tuple[PlannedTransmission, ...] = ()
                else:
                    stale = set(wasted_idx)
                    transmitted = tuple(
                        tx for j, tx in enumerate(p_tx_objs) if j not in stale
                    )
                    wasted = tuple(
                        tx for j, tx in enumerate(p_tx_objs) if j in stale
                    )
                outcome = SlotOutcome(
                    slot=s,
                    master=p_master,
                    gap_s=p_gap,
                    transmitted=transmitted,
                    wasted=wasted,
                )
                plan_view.n_requests = next_nreq
                observer.dispatch_slot(
                    outcome, None, plan_view, ev0, ev1, ev2, ev3
                )

        # (g) rotate the pipeline
        prev_master = p_master
        if replan:
            p_master = q_master
            p_gap = q_gap
            spare_nodes = p_tx_nodes
            spare_msgs = p_tx_msgs
            spare_links = p_tx_links
            if spare_nodes:
                spare_nodes.clear()
                spare_msgs.clear()
                spare_links.clear()
            p_tx_nodes = g_nodes
            p_tx_msgs = g_msgs
            p_tx_links = g_links
            p_tx_objs = q_tx_objs
            p_denied = q_denied
            p_denied_msgs = q_denied_msgs  # type: ignore[assignment]
            p_denied_links = q_denied_links
            p_nreq = q_nreq
        else:
            # Re-arbitrating would reproduce the same plan; with the
            # master stationary the hand-over gap collapses to zero.
            p_gap = 0.0
        s += 1

    # --- fold the accounting back into the report -----------------------
    report.wall_time_s = wall
    report.slot_time_s = slot_t
    report.gap_time_s = gap_t
    report.slots_simulated += slots_acc
    report.busy_slots += busy_acc
    report.packets_sent += packets_acc
    report.wasted_grants += wasted_acc
    report.break_denials += denial_acc
    master_slots = report.master_slots
    for i in range(n):
        if master_count[i]:
            master_slots[i] += master_count[i]
    handover_hops = report.handover_hops
    for i in range(n):
        if hop_count[i]:
            handover_hops[i] += hop_count[i]

    # --- hand the pending plan back so step()/run() can continue --------
    sim.current_slot = s
    sim._prev_master = prev_master
    transmissions = tuple(
        PlannedTransmission(
            node=p_tx_nodes[j],
            message=p_tx_msgs[j],
            links=p_tx_links[j],
            destinations=p_tx_msgs[j].destinations,
        )
        for j in range(len(p_tx_msgs))
    )
    denied_txs = tuple(
        PlannedTransmission(
            node=p_denied[j],
            message=p_denied_msgs[j],
            links=p_denied_links[j],
            destinations=p_denied_msgs[j].destinations,
        )
        for j in range(len(p_denied))
    )
    sim._plan = SlotPlan(
        transmit_slot=s,
        master=p_master,
        gap_s=p_gap,
        transmissions=transmissions,
        denied_by_break=denied_txs,
        n_requests=p_nreq,
    )
    soa.store(packed, prio_until)
    sim._soa = soa  # type: ignore[attr-defined]
