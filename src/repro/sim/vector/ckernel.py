"""Compiled slot micro-kernel: lazy build, eligibility, state marshalling.

The hot slot loop of the vector engine has a closed-world fast path: a
tiny C kernel (``_ckernel.c``, shipped as source next to this module)
compiled on demand with the system C compiler and loaded through
:mod:`ctypes`.  No third-party build machinery is involved -- if no
compiler is available, compilation fails, or the configuration falls
outside the closed world, :func:`try_run` returns ``False`` and the
caller uses the pure-Python vector kernel instead.

The closed world is the subset of configurations whose per-slot
semantics the C loop replicates *bit-identically*:

* every traffic source is a plain :class:`ConnectionSource` (periodic,
  fully predictable releases);
* every live queued message is an RT-connection message (no live
  best-effort or non-real-time backlog);
* the laxity mapping is exactly ``LogarithmicMapping`` or
  ``LinearMapping`` (closed-form priorities, same libm ``log2`` the
  interpreter calls);
* no observer, no drop-late policy, no active fault window (the engine
  has already excluded faults, loss and tracing);
* the ring fits the kernel's 64-bit link masks.

Bit-identity is preserved by construction: wall/slot/gap times advance
by the oracle's exact double additions in the oracle's order, message
ids are reserved from the global counter before the call (one per
scheduled release) so later Python-side allocations continue the same
sequence, the kernel's delivery log is folded into the metrics column
by column in delivery order (see "The compiled tier's exit fold" in
``DESIGN.md``), and ``per_connection`` insertion order follows the
kernel's recorded first-touch sequence.

An attached profiler does not change the tier: each call records one
``ingest``, one ``kernel`` and one ``fold`` lap.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
from heapq import heapify
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core import messages as _messages
from repro.core.mapping import LinearMapping, LogarithmicMapping
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass, class_priority_range
from repro.core.protocol import PlannedTransmission, SlotPlan
from repro.obs.registry import Histogram
from repro.sim.metrics import ConnectionStats
from repro.sim.vector.soa import release_schedule
from repro.traffic.periodic import ConnectionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Refuse schedules beyond this many releases in one call (memory guard;
#: the pure-Python kernel chunks its schedule instead).
_MAX_RELEASES = 4_000_000

#: Ring width limit: link masks are 64-bit in the C kernel.
_MAX_NODES = 62

#: Array arguments travel as bare addresses (``ndarray.ctypes.data``):
#: every array is built in :func:`try_run` with the dtype the C
#: signature names (``int64``, ``uint64`` for link masks, ``float64``).
_ADDR = ctypes.c_void_p

_UNSET = object()
_fn: object = _UNSET


def _build_library() -> object | None:
    """Compile ``_ckernel.c`` (once per source hash) and bind the entry."""
    src = Path(__file__).with_name("_ckernel.c")
    try:
        code = src.read_bytes()
    except OSError:
        return None
    digest = hashlib.sha256(code).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_CKERNEL_CACHE")
    if cache_dir:
        cache = Path(cache_dir)
    else:
        cache = Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    so = cache / f"ckernel-{digest}.so"
    if not so.exists():
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            return None
        tmp = so.with_name(f"{so.name}.{os.getpid()}.tmp")
        try:
            # NOTE: plain -O2, never -ffast-math -- the kernel's double
            # additions must stay IEEE-754 exact and unreassociated to
            # match the interpreter bit for bit.
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(src), "-lm"],
                check=True,
                capture_output=True,
                timeout=300,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            return None
    try:
        lib = ctypes.CDLL(str(so))
    except OSError:
        return None
    fn = lib.repro_run_ckernel
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_int64,  # start_slot
        ctypes.c_int64,  # n_slots
        ctypes.c_double,  # slot_length
        ctypes.c_int64,  # limit
        ctypes.c_int64,  # rt_lo
        ctypes.c_int64,  # rt_hi
        ctypes.c_int64,  # log_map
        ctypes.c_int64,  # levels
        ctypes.c_int64,  # horizon
        _ADDR,  # gap_matrix (float64)
        ctypes.c_int64,  # n_pre
        ctypes.c_int64,  # n_rel
        _ADDR,  # m_node
        _ADDR,  # m_size
        _ADDR,  # m_sent
        _ADDR,  # m_deadline
        _ADDR,  # m_created
        _ADDR,  # m_id
        _ADDR,  # m_cid
        _ADDR,  # m_links (uint64)
        _ADDR,  # m_status
        _ADDR,  # m_completed
        _ADDR,  # rel_slot
        _ADDR,  # rel_conn
        ctypes.c_int64,  # n_conns
        _ADDR,  # conn_node
        _ADDR,  # conn_size
        _ADDR,  # conn_deadline
        _ADDR,  # conn_cid
        _ADDR,  # conn_links (uint64)
        ctypes.c_int64,  # id0
        ctypes.c_int64,  # n_cids
        _ADDR,  # touched
        ctypes.c_int64,  # p_master
        ctypes.c_double,  # p_gap
        ctypes.c_int64,  # p_nreq
        ctypes.c_int64,  # p_ntx
        _ADDR,  # p_tx_rows
        ctypes.c_int64,  # p_nden
        _ADDR,  # p_den_rows
        ctypes.c_int64,  # prev_master
        _ADDR,  # heap_cap
        _ADDR,  # facc (float64)
        _ADDR,  # iacc
        _ADDR,  # master_count
        _ADDR,  # hop_count
        _ADDR,  # del_rows
        _ADDR,  # touch_out
        _ADDR,  # out_tx_rows
        _ADDR,  # out_den_rows
        _ADDR,  # out_gap (float64)
    ]
    return fn


def _kernel_fn() -> object | None:
    """The compiled entry point, or ``None`` when unavailable."""
    global _fn
    if _fn is _UNSET:
        if os.environ.get("REPRO_NO_CKERNEL"):
            _fn = None
        else:
            _fn = _build_library()
    return _fn  # type: ignore[return-value]


def _arr(values: list[int]) -> np.ndarray:
    a = np.empty(max(1, len(values)), dtype=np.int64)
    if values:
        a[: len(values)] = values
    return a


def try_run(sim: Simulation, n_slots: int) -> bool:
    """Run ``n_slots`` on the compiled kernel if eligible; else ``False``.

    Returns ``True`` only after the simulation has been advanced (state,
    metrics, registry and pending plan identical to the oracle).  All
    eligibility checks happen *before* any mutation, so ``False`` always
    leaves the simulation untouched for the Python kernel.
    """
    fn = _kernel_fn()
    if fn is None or n_slots <= 0:
        return False
    if sim.observer is not None or sim.drop_late:
        return False
    profiler = sim.profiler
    if profiler is not None:
        t_phase = profiler.clock()
    metrics = sim.metrics
    if metrics.fault_window_active:
        return False
    mapping = sim.protocol.mapping
    log_map = type(mapping) is LogarithmicMapping
    if not log_map and type(mapping) is not LinearMapping:
        return False
    n = sim.topology.n_nodes
    if n > _MAX_NODES:
        return False
    sources = sim.sources
    if not all(type(src) is ConnectionSource for src in sources):
        return False

    RT = TrafficClass.RT_CONNECTION
    DELIVERED = MessageStatus.DELIVERED
    DROPPED = MessageStatus.DROPPED
    PENDING = MessageStatus.PENDING
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    queues = sim.queues
    protocol = sim.protocol
    route_masks = protocol.route_masks

    # --- ingest the live queue state (no BE/NRT backlog allowed) -------
    pre_objs: list[Message] = []
    pre_cids: list[int] = []
    row_of: dict[int, int] = {}
    for i in range(n):
        q = queues[i]
        for heap in (q._be, q._nrt):
            for entry in heap:
                st = entry[2].status
                if st is PENDING or st is IN_TRANSIT:
                    return False
        for entry in q._rt:
            msg = entry[2]
            st = msg.status
            if st is DELIVERED or st is DROPPED:
                continue
            cid = msg.connection_id
            if (
                msg.traffic_class is not RT
                or msg.deadline_slot is None
                or cid is None
            ):
                return False
            row_of[id(msg)] = len(pre_objs)
            pre_objs.append(msg)
            pre_cids.append(cid)

    plan = sim._plan
    plan_tx_rows: list[int] = []
    for tx in plan.transmissions:
        row = row_of.get(id(tx.message))
        if row is None:
            return False
        plan_tx_rows.append(row)
    plan_den_rows: list[int] = []
    for tx in plan.denied_by_break:
        row = row_of.get(id(tx.message))
        if row is None:
            return False
        plan_den_rows.append(row)

    # --- release schedule over [s, end), oracle polling order ----------
    s = sim.current_slot
    end = s + n_slots
    conns = [src.connection for src in sources]
    rel_slot, rel_conn = release_schedule(sources, s, end)
    n_rel = len(rel_slot)
    if n_rel > _MAX_RELEASES:
        return False

    # --- constants -----------------------------------------------------
    rt_lo, rt_hi = class_priority_range(RT)
    levels = rt_hi - rt_lo + 1
    horizon = mapping.horizon_slots if not log_map else 1
    arbiter = protocol.arbiter
    limit = 1 if not arbiter.spatial_reuse else (arbiter.max_grants or 1 << 30)
    slot_length = sim.timing.slot_length_s

    # The engine admits only the plain EdfHandover, whose gap is Eq. 1.
    gap_matrix = np.array(sim.topology.handover_gap_table, dtype=np.float64)

    # Dense connection-id space: connections first, then any live
    # message whose connection is no longer sourced (admission churn).
    cid_index: dict[int, int] = {}
    cid_list: list[int] = []

    def _dense(cid: int) -> int:
        di = cid_index.get(cid)
        if di is None:
            di = cid_index[cid] = len(cid_list)
            cid_list.append(cid)
        return di

    conn_cid = [_dense(c.connection_id) for c in conns]
    conn_node = [c.source for c in conns]
    conn_size = [c.size_slots for c in conns]
    conn_deadline = [c.relative_deadline_slots for c in conns]
    conn_links = [route_masks(c.source, c.destinations)[0] for c in conns]

    n_pre = len(pre_objs)
    n_rows = n_pre + n_rel
    m_node = np.empty(max(1, n_rows), dtype=np.int64)
    m_size = np.empty_like(m_node)
    m_sent = np.empty_like(m_node)
    m_deadline = np.empty_like(m_node)
    m_created = np.empty_like(m_node)
    m_id = np.empty_like(m_node)
    m_cid = np.empty_like(m_node)
    m_links = np.empty(max(1, n_rows), dtype=np.uint64)
    m_status = np.empty_like(m_node)
    m_completed = np.empty_like(m_node)
    for row, msg in enumerate(pre_objs):
        m_node[row] = msg.source
        m_size[row] = msg.size_slots
        m_sent[row] = msg.sent_slots
        m_deadline[row] = msg.deadline_slot
        m_created[row] = msg.created_slot
        m_id[row] = msg.msg_id
        m_cid[row] = _dense(pre_cids[row])
        m_links[row] = route_masks(msg.source, msg.destinations)[0]
        m_status[row] = 0 if msg.status is PENDING else 1
        m_completed[row] = -1

    per_connection = metrics.report.per_connection
    touched = _arr([1 if cid in per_connection else 0 for cid in cid_list])
    n_cids = len(cid_list)

    heap_cap = np.zeros(n, dtype=np.int64)
    for msg in pre_objs:
        heap_cap[msg.source] += 1
    if n_rel:
        conn_node_arr = _arr(conn_node)
        heap_cap += np.bincount(conn_node_arr[rel_conn], minlength=n)

    # --- reserve message ids for every scheduled release ---------------
    # The constructor's default factory resolves the module-level counter
    # at call time, so rebinding it hands the kernel a contiguous id
    # block while later Python-side constructions continue the sequence.
    id0 = next(_messages._message_ids)
    _messages._message_ids = itertools.count(id0 + n_rel if n_rel else id0)

    # --- outputs -------------------------------------------------------
    report = metrics.report
    facc = np.array(
        [report.wall_time_s, report.slot_time_s, report.gap_time_s],
        dtype=np.float64,
    )
    iacc = np.zeros(11, dtype=np.int64)
    master_count = np.zeros(n, dtype=np.int64)
    hop_count = np.zeros(n, dtype=np.int64)
    del_rows = np.empty(max(1, n_rows), dtype=np.int64)
    touch_out = np.empty(max(1, n_cids), dtype=np.int64)
    out_tx_rows = np.empty(n, dtype=np.int64)
    out_den_rows = np.empty(n, dtype=np.int64)
    out_gap = np.zeros(1, dtype=np.float64)

    # Named locals keep every marshalled array alive across the call.
    conn_node_a = _arr(conn_node)
    conn_size_a = _arr(conn_size)
    conn_deadline_a = _arr(conn_deadline)
    conn_cid_a = _arr(conn_cid)
    conn_links_a = np.array(conn_links or [0], dtype=np.uint64)
    plan_tx_a = _arr(plan_tx_rows)
    plan_den_a = _arr(plan_den_rows)
    if profiler is not None:
        t_phase = profiler.lap("ingest", t_phase)
    ret = fn(
        n,
        s,
        n_slots,
        slot_length,
        limit,
        rt_lo,
        rt_hi,
        1 if log_map else 0,
        levels,
        horizon,
        gap_matrix.ctypes.data,
        n_pre,
        n_rel,
        m_node.ctypes.data,
        m_size.ctypes.data,
        m_sent.ctypes.data,
        m_deadline.ctypes.data,
        m_created.ctypes.data,
        m_id.ctypes.data,
        m_cid.ctypes.data,
        m_links.ctypes.data,
        m_status.ctypes.data,
        m_completed.ctypes.data,
        rel_slot.ctypes.data,
        rel_conn.ctypes.data,
        len(conns),
        conn_node_a.ctypes.data,
        conn_size_a.ctypes.data,
        conn_deadline_a.ctypes.data,
        conn_cid_a.ctypes.data,
        conn_links_a.ctypes.data,
        id0,
        n_cids,
        touched.ctypes.data,
        plan.master,
        plan.gap_s,
        plan.n_requests,
        len(plan_tx_rows),
        plan_tx_a.ctypes.data,
        len(plan_den_rows),
        plan_den_a.ctypes.data,
        sim._prev_master,
        heap_cap.ctypes.data,
        facc.ctypes.data,
        iacc.ctypes.data,
        master_count.ctypes.data,
        hop_count.ctypes.data,
        del_rows.ctypes.data,
        touch_out.ctypes.data,
        out_tx_rows.ctypes.data,
        out_den_rows.ctypes.data,
        out_gap.ctypes.data,
    )
    if ret != 0:
        raise RuntimeError(f"compiled slot kernel failed (code {ret})")
    if profiler is not None:
        t_phase = profiler.lap("kernel", t_phase)

    # --- fold the outputs back into the Python object graph ------------
    # Column-wise: the kernel's delivery log ``del_rows[:n_del]`` is in
    # oracle delivery order, so the per-message updates of
    # ``MetricsCollector.on_delivery`` are replayed as array expressions;
    # Python loops run over connections, histogram buckets, nodes and
    # still-live messages only.
    n_del = int(iacc[7])
    n_touch = int(iacc[8])

    # Connection-stats entries, created in the kernel's first-touch order
    # (release or delivery, whichever came first) == dict insertion order.
    for di in touch_out[:n_touch].tolist():
        cid = cid_list[di]
        if cid not in per_connection:
            per_connection[cid] = ConnectionStats(cid)

    per_class = report.per_class
    rt_stats = per_class[RT]
    registry = metrics.registry
    if n_rel:
        rt_stats.released += n_rel
        rel_counts = np.bincount(rel_conn, minlength=len(conns)).tolist()
        for c, k in enumerate(rel_counts):
            if k:
                per_connection[cid_list[conn_cid[c]]].released += k
        if registry is not None:
            registry.counters["sim:released"] += n_rel

    if n_del:
        rows = del_rows[:n_del]
        completed = m_completed[rows]
        latency = completed - m_created[rows] + 1
        missed = completed > m_deadline[rows]
        missed_total = int(np.count_nonzero(missed))
        rt_stats.delivered += n_del
        rt_stats.deadline_missed += missed_total
        rt_stats.deadline_met += n_del - missed_total
        rt_stats.latencies_slots.extend(latency.tolist())

        # Per connection: a *stable* grouping by dense connection id keeps
        # each connection's latencies in delivery order (report content);
        # the narrowest key dtype lets the stable sort run as a radix sort.
        group = m_cid[rows].astype(np.min_scalar_type(n_cids))
        grouped = latency[np.argsort(group, kind="stable")]
        sizes = np.bincount(group, minlength=n_cids).tolist()
        misses = np.bincount(group[missed], minlength=n_cids).tolist()
        lo = 0
        for cid, k, k_missed in zip(cid_list, sizes, misses):
            if k:
                cstat = per_connection[cid]
                cstat.delivered += k
                cstat.deadline_missed += k_missed
                cstat.deadline_met += k - k_missed
                cstat.latencies_slots.extend(grouped[lo : lo + k].tolist())
                lo += k

        if registry is not None:
            registry.counters["sim:delivered"] += n_del
            if missed_total:
                registry.counters["sim:deadline_missed"] += missed_total
            hist = registry.histograms.get("sim:latency_slots")
            if hist is None:
                hist = registry.histograms["sim:latency_slots"] = Histogram()
            hist.count += n_del
            # The exact integer sum equals the oracle's one-by-one float
            # additions: every partial sum is an integer below 2**53.
            hist.total += int(latency.sum())
            lat_min = int(latency.min())
            if lat_min < hist.min:
                hist.min = lat_min
            lat_max = int(latency.max())
            if lat_max > hist.max:
                hist.max = lat_max
            # latency >= 1: the log2 bucket is the bit length, i.e. the
            # frexp exponent.  Buckets are created in first-occurrence
            # order, as one observe() per delivery would.
            bits = np.frexp(latency.astype(np.float64))[1].astype(np.uint8)
            buckets, first, per_bucket = np.unique(
                bits, return_index=True, return_counts=True
            )
            order = np.argsort(first)
            for bucket, k in zip(
                buckets[order].tolist(), per_bucket[order].tolist()
            ):
                hist.buckets[bucket] += k

    report.wall_time_s = float(facc[0])
    report.slot_time_s = float(facc[1])
    report.gap_time_s = float(facc[2])
    report.slots_simulated += n_slots
    report.busy_slots += int(iacc[0])
    report.packets_sent += int(iacc[1])
    report.wasted_grants += int(iacc[2])
    report.break_denials += int(iacc[3])
    master_slots = report.master_slots
    for i, v in enumerate(master_count.tolist()):
        if v:
            master_slots[i] += v
    handover_hops = report.handover_hops
    for i, v in enumerate(hop_count.tolist()):
        if v:
            handover_hops[i] += v

    # --- write the message/queue state back ----------------------------
    # Pre-existing objects mutate in place; new messages materialise only
    # while still live (delivered releases never escaped the kernel and
    # are unobservable, exactly like the oracle's garbage).
    _STATUS = (PENDING, IN_TRANSIT, DELIVERED)
    live_by_node: list[list[tuple[int, int, Message]]] = [[] for _ in range(n)]
    for msg, sent, st, done, deadline in zip(
        pre_objs,
        m_sent[:n_pre].tolist(),
        m_status[:n_pre].tolist(),
        m_completed[:n_pre].tolist(),
        m_deadline[:n_pre].tolist(),
    ):
        msg.sent_slots = sent
        msg.status = _STATUS[st]
        if st == 2:
            msg.completed_slot = done
        else:
            live_by_node[msg.source].append((deadline, msg.msg_id, msg))
    live = np.flatnonzero(m_status[n_pre:n_rows] != 2)
    live_rows = live + n_pre
    new_objs: dict[int, Message] = {}
    for row, c, node, size, created, deadline, mid, sent, st in zip(
        live_rows.tolist(),
        rel_conn[live].tolist(),
        m_node[live_rows].tolist(),
        m_size[live_rows].tolist(),
        m_created[live_rows].tolist(),
        m_deadline[live_rows].tolist(),
        m_id[live_rows].tolist(),
        m_sent[live_rows].tolist(),
        m_status[live_rows].tolist(),
    ):
        conn = conns[c]
        msg = new_objs[row] = Message(
            node,
            conn.destinations,
            RT,
            size,
            created,
            deadline,
            conn.connection_id,
            mid,
            sent,
            _STATUS[st],
            period_slots=conn.period_slots,
        )
        live_by_node[node].append((deadline, mid, msg))
    for i in range(n):
        q = queues[i]
        entries = live_by_node[i]
        heapify(entries)
        q._rt[:] = entries
        q._head_valid = False

    def _planned(rows: np.ndarray) -> tuple[PlannedTransmission, ...]:
        planned = []
        for row, node, links in zip(
            rows.tolist(), m_node[rows].tolist(), m_links[rows].tolist()
        ):
            msg = pre_objs[row] if row < n_pre else new_objs[row]
            planned.append(
                PlannedTransmission(
                    node=node,
                    message=msg,
                    links=links,
                    destinations=msg.destinations,
                )
            )
        return tuple(planned)

    sim.current_slot = end
    sim._prev_master = int(iacc[4])
    sim._plan = SlotPlan(
        transmit_slot=end,
        master=int(iacc[5]),
        gap_s=float(out_gap[0]),
        transmissions=_planned(out_tx_rows[: int(iacc[9])]),
        denied_by_break=_planned(out_den_rows[: int(iacc[10])]),
        n_requests=int(iacc[6]),
    )
    if profiler is not None:
        profiler.lap("fold", t_phase)
    return True
