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
  the repeated loaded slot as well, bounded by priority-bucket expiry,
  the first delivery and drop-late.  Float accumulators are advanced by
  the same repeated additions the oracle performs, never by
  multiplication, so totals match bit-for-bit.

Interesting-event bookkeeping is heap-based: one release heap keyed by
``(slot, source index)`` -- each source filed under its
``next_release_slot`` contract, a plain periodic source re-filed one
period on after each inlined release -- and a conservative drop-late
heap keyed by the earliest slot a message *could* go late (its deadline
minus its full remaining service time; re-inserted at the recomputed
slot when it was granted meanwhile).

Arbitration itself sorts the requesting nodes over the packed priority
field of :mod:`repro.sim.vector.soa`: descending order over ``packed``
equals the oracle's ``(-priority, node)`` sort.

The kernel only runs for configurations whose semantics it replicates
exactly; :class:`repro.sim.vector.engine.VectorSimulation` falls back to
the oracle otherwise (see ``_fallback_reason``).
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from typing import TYPE_CHECKING, cast

from repro.core import messages as _messages
from repro.core.mapping import level_starts
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import (
    PRIO_NON_REAL_TIME,
    TrafficClass,
    class_priority_range,
)
from repro.core.protocol import PlannedTransmission
from repro.obs.events import ArbitrationDenied, FastForwardSpan, HandoverOccurred
from repro.sim.metrics import ConnectionStats
from repro.traffic.periodic import ConnectionSource
from repro.sim.vector.soa import PACKED_NODE_MASK, PACKED_PRIO_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Shared read-only empty list for the (common) no-denials plan slots.
_EMPTY_LIST: list = []

#: "Never" for ``prio_until`` entries (NRT requests and already-late
#: saturated heads) and the other slot bounds.  Far above any reachable
#: slot index but small enough that ``+ 1`` stays in int64.
_FOREVER: int = 1 << 62


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
    on_release = metrics.on_release
    on_delivery = metrics.on_delivery
    on_drop = metrics.on_drop
    per_class = report.per_class
    per_connection = report.per_connection

    DELIVERED = MessageStatus.DELIVERED
    DROPPED = MessageStatus.DROPPED
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    PENDING = MessageStatus.PENDING
    NRT = TrafficClass.NON_REAL_TIME
    RT = TrafficClass.RT_CONNECTION
    INF = _FOREVER
    NODE_MASK = PACKED_NODE_MASK

    # Per deadline class: its most urgent level ``hi`` and the starts of
    # the levels below it (``level_starts`` past its ``None`` entry 0),
    # the only mapping-dependent state of this tier.
    class_levels = {
        tc: (
            class_priority_range(tc)[1],
            cast("tuple[int, ...]", level_starts(mapping, tc)[1:]),
        )
        for tc in (TrafficClass.BEST_EFFORT, RT)
    }
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

    wants_events = observer is not None and observer.wants_slot_events

    s = sim.current_slot
    end = s + n_slots
    prev_master = sim._prev_master

    # --- per-node state, one list per field ----------------------------
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
        hi, lower = class_levels[tc]
        if lax <= 0:
            return hi, INF  # saturated urgent: laxity only shrinks
        k = bisect_right(lower, lax)
        if k == 0:
            return hi, INF  # most urgent already; stays as lax shrinks
        # Level ``hi - k`` holds while the laxity stays >= its start.
        return hi - k, now + lax - lower[k - 1]

    # --- release bookkeeping -------------------------------------------
    # One heap of (slot, source index): pops in the oracle's polling
    # order, ascending slot and source-list order within a slot.  A plain
    # periodic source releases inline (``plain[idx]`` holds its
    # constants) and is re-filed one period on; any other source is
    # polled and re-filed under its ``next_release_slot`` contract.
    rel_heap: list[tuple[int, int]] = []
    plain: list[tuple | None] = []
    cstats: list[ConnectionStats | None] = [None] * len(sources)
    for idx, src in enumerate(sources):
        if type(src) is ConnectionSource:
            c = src.connection
            plain.append(
                (
                    c.source,
                    c.destinations,
                    c.size_slots,
                    c.period_slots,
                    c.relative_deadline_slots,
                    c.connection_id,
                    queues[c.source],
                    INF if src.active_until is None else src.active_until,
                )
            )
        else:
            plain.append(None)
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
    p_master, p_gap, p_tx_objs, plan_denied, p_nreq = sim._pending
    p_tx_nodes = [tx.node for tx in p_tx_objs]
    p_tx_msgs = [tx.message for tx in p_tx_objs]
    p_tx_links = [tx.links for tx in p_tx_objs]
    # Plan buffers alternate between the live plan and a spare set that
    # the replan path refills in place, so steady state allocates no new
    # lists.  Nothing outside the kernel holds a reference to either:
    # the plan handed back on exit is rebuilt as PlannedTransmission
    # tuples from whichever lists are then current.
    spare_nodes: list[int] = []
    spare_msgs: list[Message] = []
    spare_links: list[int] = []
    reusable_d: list[int] = []
    p_denied = tuple(tx.node for tx in plan_denied)
    p_denied_msgs = [tx.message for tx in plan_denied]
    p_denied_links = [tx.links for tx in plan_denied]
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
                if rel_heap and rel_heap[0][0] < bound:
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
                                observer.emit_fields(
                                    FastForwardSpan, s, s + k, k, p_master
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
        while rel_heap and rel_heap[0][0] <= s:
            idx = rel_heap[0][1]
            spec = plain[idx]
            if spec is not None:
                # Plain periodic release: the oracle's poll -> validate ->
                # enqueue -> account chain, inlined and specialised for a
                # known-valid periodic RT-connection message.
                node, dests, size, period, reldl, cid, q, until = spec
                nxt = s + period
                if nxt < until:
                    heapreplace(rel_heap, (nxt, idx))
                else:
                    heappop(rel_heap)
                deadline = s + reldl
                # Construct the message directly (the dataclass
                # constructor plus its validation, bypassed): every field
                # of a periodic connection release was validated when the
                # connection was built, and the id counter is consumed
                # exactly as the constructor would.
                msg = msg_new(Message)
                msg.source = node
                msg.destinations = dests
                msg.traffic_class = RT
                msg.size_slots = size
                msg.created_slot = s
                msg.deadline_slot = deadline
                msg.period_slots = period
                msg.connection_id = cid
                msg.msg_id = mid = next_mid()
                msg.sent_slots = 0
                msg.status = PENDING
                msg.completed_slot = None
                heappush(q._rt, (deadline, mid, msg))
                q._head_valid = False
                rt_stats.released += 1
                cs = cstats[idx]
                if cs is None:
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
                    # A fresh message has the globally largest msg_id, so
                    # it only beats an RT head on a strictly earlier
                    # deadline.
                    if (
                        head is None
                        or head.traffic_class is not RT
                        or deadline < head.deadline_slot
                    ):
                        dirty_flags[node] = 1
                        dirty.append(node)
                        replan_needed = True
                continue
            heappop(rel_heap)
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
        if n_tx:
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
                    on_delivery(msg)
                    ev1 += 1
                    if msg.met_deadline() is False:
                        ev2 += 1
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
                        active.discard(i)
                    continue
                active.add(i)
                prio, until = prio_and_until(msg, s)
                prio_until[i] = until
                packed[i] = (prio << PACKED_PRIO_SHIFT) | (NODE_MASK - i)
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
                        packed[i] = (prio << PACKED_PRIO_SHIFT) | (NODE_MASK - i)

            # Reuse the spare plan buffers (recycled from the plan
            # retired at the last rotation) instead of allocating.
            g_nodes = spare_nodes
            g_msgs = spare_msgs
            g_links = spare_links
            d_nodes = reusable_d
            d_nodes.clear()
            n_active = len(active)
            if n_active:
                ordered = sorted(active, key=packed.__getitem__, reverse=True)
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
                observer.emit_fields(ArbitrationDenied, s + 1, next_denied)
            if p_master != prev_master:
                observer.emit_fields(
                    HandoverOccurred,
                    s,
                    prev_master,
                    p_master,
                    (p_master - prev_master) % n,
                    p_gap,
                )
            if wants_events:
                if wasted_idx is None:
                    transmitted = p_tx_objs
                else:
                    stale = set(wasted_idx)
                    transmitted = tuple(
                        tx for j, tx in enumerate(p_tx_objs) if j not in stale
                    )
                observer.dispatch_slot(
                    s, p_master, p_gap, transmitted, next_nreq,
                    ev0, ev1, ev2, ev3,
                )  # fmt: skip

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
    sim._resume(
        s,
        prev_master,
        (
            p_master,
            p_gap,
            tuple(
                PlannedTransmission(
                    node=p_tx_nodes[j],
                    message=p_tx_msgs[j],
                    links=p_tx_links[j],
                    destinations=p_tx_msgs[j].destinations,
                )
                for j in range(len(p_tx_msgs))
            ),
            tuple(
                PlannedTransmission(
                    node=p_denied[j],
                    message=p_denied_msgs[j],
                    links=p_denied_links[j],
                    destinations=p_denied_msgs[j].destinations,
                )
                for j in range(len(p_denied))
            ),
            p_nreq,
        ),
    )
