"""Compiled slot micro-kernel: lazy build, eligibility, state marshalling.

The hot slot loop of the vector engine has a closed-world fast path: a
tiny C kernel (``_ckernel.c``, shipped as source next to this module)
compiled on demand with the system C compiler and loaded through
:mod:`ctypes`.  No third-party build machinery is involved -- if no
compiler is available, compilation fails, or the configuration falls
outside the closed world, :func:`try_run` returns the reason and the
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

One call marshals one workspace: a single int64 buffer whose header
holds the word offset of every field of :data:`WORKSPACE`, the table
both this module and ``_ckernel.c`` derive their layout from.  The
kernel walks the release calendar itself from per-connection columns
(first release in the call, period, window end), so no release schedule
is materialised.  Bit-identity is preserved by construction: wall/slot/
gap times advance by the oracle's exact double additions in the
oracle's order, message ids are reserved from the global counter before
the call (one per release, counted arithmetically) so later Python-side
allocations continue the same sequence, the kernel's delivery
aggregates are folded into the metrics column by column in delivery
order (see "The compiled tier's exit fold" in ``DESIGN.md``).

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
from collections.abc import Sequence
from heapq import heapify
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core import messages as _messages
from repro.core.mapping import LinearMapping, LogarithmicMapping
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass, class_priority_range
from repro.core.protocol import PlannedTransmission, SlotPlan
from repro.sim.metrics import ConnectionStats
from repro.traffic.periodic import ConnectionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Refuse calls beyond this many releases (memory guard; the
#: pure-Python kernel chunks its schedule instead).
_MAX_RELEASES = 4_000_000

#: Ring width limit: link masks are 64-bit in the C kernel.
_MAX_NODES = 62

#: The kernel's workspace, one entry per field: ``(name, dtype, length
#: rule)``.  Every field is a run of 8-byte words carved from one int64
#: buffer; word ``i`` of the buffer holds the word offset of field ``i``
#: and the fields follow the header in this order.  ``_ckernel.c`` names
#: the same fields in the same order (``enum ws_field``, pinned by
#: ``tests/sim/vector/test_soa.py``).  Length rules: ``"1"`` a scalar,
#: ``"n"`` one word per node, ``"n*n"`` per ordered node pair,
#: ``"conns"`` per sourced connection, ``"cids"`` per dense connection
#: id, ``"rows"`` per message row (live messages carried in, then one
#: per release).  Scalars come first, so scalar ``i`` is word
#: ``len(WORKSPACE) + i``.
WORKSPACE: tuple[tuple[str, str, str], ...] = (
    # int64 scalars in
    ("n", "i8", "1"),
    ("start_slot", "i8", "1"),
    ("n_slots", "i8", "1"),
    ("limit", "i8", "1"),
    ("rt_lo", "i8", "1"),
    ("rt_hi", "i8", "1"),
    ("log_map", "i8", "1"),
    ("levels", "i8", "1"),
    ("horizon", "i8", "1"),
    ("n_pre", "i8", "1"),
    ("n_rel", "i8", "1"),
    ("n_conns", "i8", "1"),
    ("n_cids", "i8", "1"),
    ("id0", "i8", "1"),
    # int64 scalars in and out: the pending plan
    ("master", "i8", "1"),
    ("prev_master", "i8", "1"),
    ("n_req", "i8", "1"),
    ("n_tx", "i8", "1"),
    ("n_den", "i8", "1"),
    # int64 scalars out
    ("busy", "i8", "1"),
    ("packets", "i8", "1"),
    ("wasted", "i8", "1"),
    ("denials", "i8", "1"),
    ("n_del", "i8", "1"),
    ("n_missed", "i8", "1"),
    ("n_live", "i8", "1"),
    # float64 scalars: the slot length in; the pending gap and the
    # wall / slot / gap time accumulators in and out
    ("slot_length", "f8", "1"),
    ("gap", "f8", "1"),
    ("wall", "f8", "1"),
    ("slot_time", "f8", "1"),
    ("gap_time", "f8", "1"),
    # per node
    ("gap_matrix", "f8", "n*n"),
    ("heap_cap", "i8", "n"),
    ("tx_rows", "i8", "n"),
    ("den_rows", "i8", "n"),
    ("master_count", "i8", "n"),
    ("hop_count", "i8", "n"),
    # per sourced connection: constants and the release calendar
    ("conn_node", "i8", "conns"),
    ("conn_size", "i8", "conns"),
    ("conn_deadline", "i8", "conns"),
    ("conn_cid", "i8", "conns"),
    ("conn_links", "u8", "conns"),
    ("conn_first", "i8", "conns"),
    ("conn_period", "i8", "conns"),
    ("conn_stop", "i8", "conns"),
    # per dense connection id
    ("cid_delivered", "i8", "cids"),
    ("cid_missed", "i8", "cids"),
    # message table
    ("m_node", "i8", "rows"),
    ("m_size", "i8", "rows"),
    ("m_sent", "i8", "rows"),
    ("m_deadline", "i8", "rows"),
    ("m_created", "i8", "rows"),
    ("m_id", "i8", "rows"),
    ("m_cid", "i8", "rows"),
    ("m_links", "u8", "rows"),
    ("m_status", "i8", "rows"),
    ("m_completed", "i8", "rows"),
    ("m_conn", "i8", "rows"),
    # per delivery, in delivery order / grouped by connection id
    ("lat", "i8", "rows"),
    ("lat_by_cid", "i8", "rows"),
    # delivered rows while the loop runs; live release rows at exit
    ("row_log", "i8", "rows"),
)

_RULES = ("1", "n", "n*n", "conns", "cids", "rows")
_HEADER = len(WORKSPACE)
_FIELD = {name: i for i, (name, _, _) in enumerate(WORKSPACE)}
_FIELD_RULE = [_RULES.index(rule) for _, _, rule in WORKSPACE]
_DTYPE = {"i8": np.int64, "u8": np.uint64, "f8": np.float64}
# Scalars lead the table: the int64 ones, then the float64 ones.
_INT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "i8")]
_FLOAT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "f8")]
_N_SCALARS = len(_INT_SCALARS) + len(_FLOAT_SCALARS)
assert [n for n, _, _ in WORKSPACE[:_N_SCALARS]] == _INT_SCALARS + _FLOAT_SCALARS


class _Workspace:
    """One call's buffer, carved per :data:`WORKSPACE`."""

    __slots__ = ("words", "floats", "offsets")

    def __init__(self, n: int, n_conns: int, n_cids: int, n_rows: int):
        sizes = (1, n, n * n, n_conns, n_cids, n_rows)
        offsets = list(
            itertools.accumulate([sizes[r] for r in _FIELD_RULE], initial=_HEADER)
        )
        words = np.empty(offsets[-1], dtype=np.int64)
        words[:_HEADER] = offsets[:-1]
        self.words = words
        self.floats = words.view(np.float64)
        self.offsets = offsets

    def col(self, name: str) -> np.ndarray:
        """The field ``name`` as an array of its dtype (a view)."""
        f = _FIELD[name]
        view = self.words[self.offsets[f] : self.offsets[f + 1]]
        dtype = WORKSPACE[f][1]
        return view if dtype == "i8" else view.view(_DTYPE[dtype])

    def put(self, name: str, values: Sequence[int] | Sequence[float]) -> None:
        """Fill the leading ``len(values)`` words of field ``name``."""
        if values:
            self.col(name)[: len(values)] = values

    def set_scalars(self, **values: int | float) -> None:
        """Write the scalar inputs; outputs the kernel sets start at 0."""
        n_int = len(_INT_SCALARS)
        self.words[_HEADER : _HEADER + n_int] = [
            values.pop(name, 0) for name in _INT_SCALARS
        ]
        self.floats[_HEADER + n_int : _HEADER + _N_SCALARS] = [
            values.pop(name, 0.0) for name in _FLOAT_SCALARS
        ]
        if values:
            raise KeyError(f"not workspace scalars: {sorted(values)}")


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
    # The workspace's base address, as an integer (``ndarray.ctypes.data``).
    fn.argtypes = [ctypes.c_void_p]
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


def try_run(sim: Simulation, n_slots: int) -> str | None:
    """Run ``n_slots`` on the compiled kernel if eligible.

    Returns ``None`` only after the simulation has been advanced (state,
    metrics and pending plan identical to the oracle), and
    otherwise the reason the compiled tier refused the call.  All
    eligibility checks happen *before* any mutation, so a refusal always
    leaves the simulation untouched for the Python kernel.
    """
    fn = _kernel_fn()
    if fn is None:
        return "no compiled kernel"
    if sim.observer is not None:
        return "observer attached"
    if sim.drop_late:
        return "drop-late"
    profiler = sim.profiler
    if profiler is not None:
        t_phase = profiler.clock()
    metrics = sim.metrics
    if metrics.fault_window_active:
        return "fault window open"
    mapping = sim.protocol.mapping
    log_map = type(mapping) is LogarithmicMapping
    if not log_map and type(mapping) is not LinearMapping:
        return f"laxity mapping {type(mapping).__name__}"
    n = sim.topology.n_nodes
    if n > _MAX_NODES:
        return f"ring wider than {_MAX_NODES} nodes"
    sources = sim.sources
    for src in sources:
        if type(src) is not ConnectionSource:
            return f"source {type(src).__name__} is not a ConnectionSource"

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
                    return "live best-effort or non-real-time backlog"
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
                return "live message outside an RT connection"
            row_of[id(msg)] = len(pre_objs)
            pre_objs.append(msg)
            pre_cids.append(cid)

    plan = sim._plan
    plan_tx_rows: list[int] = []
    for tx in plan.transmissions:
        row = row_of.get(id(tx.message))
        if row is None:
            return "planned message not queued"
        plan_tx_rows.append(row)
    plan_den_rows: list[int] = []
    for tx in plan.denied_by_break:
        row = row_of.get(id(tx.message))
        if row is None:
            return "planned message not queued"
        plan_den_rows.append(row)

    # --- the release calendar over [s, end), counted arithmetically ----
    # Each source's first release is the one the oracle's calendar files
    # it under (``next_release_slot``); its window ends at active_until
    # or at the call's end, whichever comes first.
    s = sim.current_slot
    end = s + n_slots
    conns = [src.connection for src in sources]
    conn_first: list[int] = []
    conn_stop: list[int] = []
    rel_counts: list[int] = []
    heap_cap = [0] * n
    for msg in pre_objs:
        heap_cap[msg.source] += 1
    for src, conn in zip(sources, conns):
        until = src.active_until
        stop = end if until is None or until > end else until
        first = src.next_release_slot(s)
        if first is None or first >= stop:
            first, k = stop, 0
        else:
            k = (stop - 1 - first) // conn.period_slots + 1
            heap_cap[conn.source] += k
        conn_first.append(first)
        conn_stop.append(stop)
        rel_counts.append(k)
    n_rel = sum(rel_counts)
    if n_rel > _MAX_RELEASES:
        return f"more than {_MAX_RELEASES} releases"

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
    pre_dense = [_dense(cid) for cid in pre_cids]
    n_cids = len(cid_list)
    n_pre = len(pre_objs)
    n_rows = n_pre + n_rel

    # --- marshal: one workspace ----------------------------------------
    ws = _Workspace(n, len(conns), n_cids, n_rows)
    rt_lo, rt_hi = class_priority_range(RT)
    arbiter = protocol.arbiter
    report = metrics.report
    # The constructor's default factory resolves the module-level counter
    # at call time, so rebinding it hands the kernel a contiguous id
    # block while later Python-side constructions continue the sequence.
    id0 = next(_messages._message_ids)
    _messages._message_ids = itertools.count(id0 + n_rel if n_rel else id0)
    ws.set_scalars(
        n=n,
        start_slot=s,
        n_slots=n_slots,
        limit=1 if not arbiter.spatial_reuse else (arbiter.max_grants or 1 << 30),
        rt_lo=rt_lo,
        rt_hi=rt_hi,
        log_map=1 if log_map else 0,
        levels=rt_hi - rt_lo + 1,
        horizon=mapping.horizon_slots if not log_map else 1,
        n_pre=n_pre,
        n_rel=n_rel,
        n_conns=len(conns),
        n_cids=n_cids,
        id0=id0,
        master=plan.master,
        prev_master=sim._prev_master,
        n_req=plan.n_requests,
        n_tx=len(plan_tx_rows),
        n_den=len(plan_den_rows),
        slot_length=sim.timing.slot_length_s,
        gap=plan.gap_s,
        wall=report.wall_time_s,
        slot_time=report.slot_time_s,
        gap_time=report.gap_time_s,
    )
    # The engine admits only the plain EdfHandover, whose gap is Eq. 1.
    ws.put("gap_matrix", sim.topology.handover_gap_table)
    ws.put("heap_cap", heap_cap)
    ws.put("tx_rows", plan_tx_rows)
    ws.put("den_rows", plan_den_rows)
    ws.put("conn_node", [c.source for c in conns])
    ws.put("conn_size", [c.size_slots for c in conns])
    ws.put("conn_deadline", [c.relative_deadline_slots for c in conns])
    ws.put("conn_cid", conn_cid)
    ws.put("conn_links", [route_masks(c.source, c.destinations)[0] for c in conns])
    ws.put("conn_first", conn_first)
    ws.put("conn_period", [c.period_slots for c in conns])
    ws.put("conn_stop", conn_stop)
    if n_pre:
        ws.put("m_node", [m.source for m in pre_objs])
        ws.put("m_size", [m.size_slots for m in pre_objs])
        ws.put("m_sent", [m.sent_slots for m in pre_objs])
        ws.put("m_deadline", [m.deadline_slot for m in pre_objs])
        ws.put("m_created", [m.created_slot for m in pre_objs])
        ws.put("m_id", [m.msg_id for m in pre_objs])
        ws.put("m_cid", pre_dense)
        ws.put(
            "m_links",
            [route_masks(m.source, m.destinations)[0] for m in pre_objs],
        )
        ws.put("m_status", [0 if m.status is PENDING else 1 for m in pre_objs])
    words = ws.words
    if profiler is not None:
        t_phase = profiler.lap("ingest", t_phase)
    ret = fn(words.ctypes.data)
    if ret != 0:
        raise RuntimeError(f"compiled slot kernel failed (code {ret})")
    if profiler is not None:
        t_phase = profiler.lap("kernel", t_phase)

    # --- fold the outputs back into the Python object graph ------------
    # The kernel wrote every per-delivery aggregate (latencies in delivery
    # order and grouped by connection, per-connection delivered/missed
    # counts), so Python loops run over connections, nodes and still-live
    # messages only.
    out = words[_HEADER : _HEADER + _N_SCALARS].tolist()
    fout = ws.floats[_HEADER : _HEADER + _N_SCALARS].tolist()
    F = _FIELD
    n_del = out[F["n_del"]]
    per_connection = report.per_connection

    def _stats(cid: int) -> ConnectionStats:
        # A connection has an entry once it released or delivered.
        cstat = per_connection.get(cid)
        if cstat is None:
            cstat = per_connection[cid] = ConnectionStats(cid)
        return cstat

    rt_stats = report.per_class[RT]
    if n_rel:
        rt_stats.released += n_rel
        for c, k in enumerate(rel_counts):
            if k:
                _stats(cid_list[conn_cid[c]]).released += k

    if n_del:
        missed_total = out[F["n_missed"]]
        rt_stats.delivered += n_del
        rt_stats.deadline_missed += missed_total
        rt_stats.deadline_met += n_del - missed_total
        rt_stats.latencies_slots.extend(ws.col("lat")[:n_del].tolist())
        # Per connection, each group in delivery order (report content).
        grouped = ws.col("lat_by_cid")[:n_del].tolist()
        lo = 0
        for cid, k, k_missed in zip(
            cid_list,
            ws.col("cid_delivered").tolist(),
            ws.col("cid_missed").tolist(),
        ):
            if k:
                cstat = _stats(cid)
                cstat.delivered += k
                cstat.deadline_missed += k_missed
                cstat.deadline_met += k - k_missed
                cstat.latencies_slots.extend(grouped[lo : lo + k])
                lo += k

    report.wall_time_s = fout[F["wall"]]
    report.slot_time_s = fout[F["slot_time"]]
    report.gap_time_s = fout[F["gap_time"]]
    report.slots_simulated += n_slots
    report.busy_slots += out[F["busy"]]
    report.packets_sent += out[F["packets"]]
    report.wasted_grants += out[F["wasted"]]
    report.break_denials += out[F["denials"]]
    master_slots = report.master_slots
    for i, v in enumerate(ws.col("master_count").tolist()):
        if v:
            master_slots[i] += v
    handover_hops = report.handover_hops
    for i, v in enumerate(ws.col("hop_count").tolist()):
        if v:
            handover_hops[i] += v

    # --- write the message/queue state back ----------------------------
    # Pre-existing objects mutate in place; new messages materialise only
    # while still live (delivered releases never escaped the kernel and
    # are unobservable, exactly like the oracle's garbage).
    _STATUS = (PENDING, IN_TRANSIT, DELIVERED)
    m_status = ws.col("m_status")
    live_by_node: list[list[tuple[int, int, Message]]] = [[] for _ in range(n)]
    if n_pre:
        for msg, sent, st, done in zip(
            pre_objs,
            ws.col("m_sent")[:n_pre].tolist(),
            m_status[:n_pre].tolist(),
            ws.col("m_completed")[:n_pre].tolist(),
        ):
            msg.sent_slots = sent
            msg.status = _STATUS[st]
            if st == 2:
                msg.completed_slot = done
            else:
                live_by_node[msg.source].append(
                    (msg.deadline_slot, msg.msg_id, msg)
                )
    live_rows = ws.col("row_log")[: out[F["n_live"]]]
    new_objs: dict[int, Message] = {}
    if len(live_rows):
        for row, c, created, deadline, mid, sent, st in zip(
            live_rows.tolist(),
            ws.col("m_conn")[live_rows].tolist(),
            ws.col("m_created")[live_rows].tolist(),
            ws.col("m_deadline")[live_rows].tolist(),
            ws.col("m_id")[live_rows].tolist(),
            ws.col("m_sent")[live_rows].tolist(),
            m_status[live_rows].tolist(),
        ):
            conn = conns[c]
            msg = new_objs[row] = Message(
                conn.source,
                conn.destinations,
                RT,
                conn.size_slots,
                created,
                deadline,
                conn.connection_id,
                mid,
                sent,
                _STATUS[st],
                period_slots=conn.period_slots,
            )
            live_by_node[conn.source].append((deadline, mid, msg))
    for i in range(n):
        q = queues[i]
        entries = live_by_node[i]
        heapify(entries)
        q._rt[:] = entries
        q._head_valid = False

    m_links = ws.col("m_links")

    def _planned(name: str, count: int) -> tuple[PlannedTransmission, ...]:
        planned = []
        for row in ws.col(name)[:count].tolist():
            msg = pre_objs[row] if row < n_pre else new_objs[row]
            planned.append(
                PlannedTransmission(
                    node=msg.source,
                    message=msg,
                    links=int(m_links[row]),
                    destinations=msg.destinations,
                )
            )
        return tuple(planned)

    sim.current_slot = end
    sim._prev_master = out[F["prev_master"]]
    sim._plan = SlotPlan(
        transmit_slot=end,
        master=out[F["master"]],
        gap_s=fout[F["gap"]],
        transmissions=_planned("tx_rows", out[F["n_tx"]]),
        denied_by_break=_planned("den_rows", out[F["n_den"]]),
        n_requests=out[F["n_req"]],
    )
    if profiler is not None:
        profiler.lap("fold", t_phase)
    return None
