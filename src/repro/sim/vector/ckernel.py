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
* no observer, no drop-late policy, no active fault window (the engine
  has already excluded faults, loss and tracing);
* the ring fits the kernel's 64-bit link masks.

A call is one marshal, one kernel entry and one fold.  The marshal
writes one workspace: an int64 buffer whose header holds the word
offset of every field of :data:`WORKSPACE`, the table both this module
and ``_ckernel.c`` derive their layout from.  Its message table holds
the live messages carried in, then one row per release, for at most
about :data:`_WINDOW_RELEASES` releases: when a slot's releases do not
fit, the kernel compacts the table in place (the carried rows and the
live release rows move to the front, the pending plan's rows are
remapped), so a call's memory is bounded by the table and the backlog it
carries, not by the call's length.  The kernel returns early only for a
backlog that outgrows the table (the buffer grows and the kernel is
entered again) or a full late-delivery log (drained, then entered
again); neither folds.  The kernel walks the release calendar itself
from per-connection columns (next release, period, stop), filing each
connection in a release wheel of bitmasks, so no release schedule is
materialised.  Bit-identity is preserved by construction: wall/slot/gap
times advance by the oracle's exact double additions in the oracle's
order, message ids are reserved from the global counter once per call
(one per release, counted arithmetically) so Python-side allocations
continue the same sequence, a head's priority is read off a laxity ->
priority table the kernel fills at entry from the mapping's level
starts (``core.mapping.level_starts``, so any laxity mapping runs here),
and the kernel counts deliveries and misses per connection and
latencies per (connection, latency) in a narrow table, logging only
deliveries too late for it (see "The compiled tier's exit fold" in
``DESIGN.md``).  The fold's Python loops run over connections, the
table's non-zero cells, the late log's distinct pairs, nodes and
still-live messages, never over deliveries.

An attached profiler does not change the tier: each call records one
``ingest``, one ``kernel`` and one ``fold`` lap, and adds the call's
compactions plus one to the ``compiled_windows`` counter.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
from collections.abc import Sequence
from heapq import heapify
from pathlib import Path
from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core import messages as _messages
from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import level_starts
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass, class_priority_range
from repro.core.protocol import PlannedTransmission
from repro.sim.metrics import ConnectionStats
from repro.traffic.periodic import ConnectionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Releases the message table holds past the carried rows (about 3.1 MB
#: of rows) and entries of the late-delivery log (0.5 MB): a compaction
#: window.
#: A memory bound, not a tuning knob -- the kernel compacts the table in
#: place when it fills, so a call's workspace stays bounded however long
#: the call.
_WINDOW_RELEASES = 2**15

#: Widest latency count table per connection: deliveries with a latency
#: of at least this many slots (or past the longest relative deadline + 1)
#: go to the late log instead.
_LAT_WIDTH = 256

#: Ring width limit: link masks are 64-bit in the C kernel.
_MAX_NODES = 62

#: The kernel's early returns (``RET_*`` in ``_ckernel.c``): the backlog
#: outgrew the message table, or the late-delivery log is full.
_RET_ROWS_FULL = 1
_RET_LOG_FULL = 2

#: The kernel's workspace, one entry per field: ``(name, dtype, length
#: rule)``.  Every field is a run of 8-byte words carved from one int64
#: buffer; word ``i`` of the buffer holds the word offset of field ``i``
#: and the fields follow the header in this order.  ``_ckernel.c`` names
#: the same fields in the same order (``enum ws_field``, pinned by
#: ``tests/sim/vector/test_soa.py``).  Length rules: ``"1"`` a scalar,
#: ``"n"`` one word per node, ``"n*n"`` per ordered node pair,
#: ``"conns"`` per sourced connection, ``"cids"`` per dense connection
#: id, ``"levels"`` per RT-connection priority level below the most
#: urgent one, ``"lat"`` ``lat_width`` words per dense connection id,
#: ``"rows"`` per message-table row, ``"log"`` per late-log entry.
#: Scalars come first, so scalar ``i`` is word ``len(WORKSPACE) + i``;
#: fields of one rule are adjacent, so each group is one 2-D block
#: (:meth:`_Workspace.block`); the message table and the log come last.
#: Every field before them starts zeroed, so every output starts at 0.
WORKSPACE: tuple[tuple[str, str, str], ...] = (
    # int64 scalars in
    ("n", "i8", "1"),
    ("end_slot", "i8", "1"),
    ("limit", "i8", "1"),
    ("rt_lo", "i8", "1"),
    ("rt_hi", "i8", "1"),
    ("n_pre", "i8", "1"),
    ("n_rel", "i8", "1"),
    ("n_conns", "i8", "1"),
    ("id0", "i8", "1"),
    ("lat_width", "i8", "1"),
    ("row_cap", "i8", "1"),
    ("log_cap", "i8", "1"),
    # int64 scalars in and out: the next slot to run, the rows in use,
    # the releases made, the pending plan
    ("slot", "i8", "1"),
    ("n_rows", "i8", "1"),
    ("n_released", "i8", "1"),
    ("master", "i8", "1"),
    ("prev_master", "i8", "1"),
    ("n_req", "i8", "1"),
    ("n_tx", "i8", "1"),
    ("n_den", "i8", "1"),
    # int64 scalars out, accumulated over the kernel entries of one call;
    # ``compacted`` ors what the compactions carried (1: a message in
    # transit, 2: a pending hand-over, 4: a pending break denial)
    ("busy", "i8", "1"),
    ("packets", "i8", "1"),
    ("wasted", "i8", "1"),
    ("denials", "i8", "1"),
    ("n_del", "i8", "1"),
    ("n_missed", "i8", "1"),
    ("n_log", "i8", "1"),
    ("n_compactions", "i8", "1"),
    ("compacted", "i8", "1"),
    ("n_live", "i8", "1"),
    # float64 scalars: the slot length in; the pending gap and the
    # wall / slot / gap time accumulators in and out
    ("slot_length", "f8", "1"),
    ("gap", "f8", "1"),
    ("wall", "f8", "1"),
    ("slot_time", "f8", "1"),
    ("gap_time", "f8", "1"),
    # per node: the pending plan's rows in and out, counts out
    ("tx_rows", "i8", "n"),
    ("den_rows", "i8", "n"),
    ("master_count", "i8", "n"),
    ("hop_count", "i8", "n"),
    ("gap_matrix", "f8", "n*n"),
    # per sourced connection: constants and the release calendar (the
    # next release, in and out)
    ("conn_node", "i8", "conns"),
    ("conn_size", "i8", "conns"),
    ("conn_deadline", "i8", "conns"),
    ("conn_cid", "i8", "conns"),
    ("conn_links", "u8", "conns"),
    ("conn_period", "i8", "conns"),
    ("conn_stop", "i8", "conns"),
    ("conn_due", "i8", "conns"),
    # per dense connection id
    ("cid_delivered", "i8", "cids"),
    ("cid_missed", "i8", "cids"),
    # per RT level below the most urgent: word ``k`` is the laxity at
    # which level ``rt_hi - 1 - k`` starts (``level_starts`` past entry 0)
    ("rt_level_start", "i8", "levels"),
    # deliveries per (dense id, latency): word ``di * lat_width + latency``
    ("lat_counts", "i8", "lat"),
    # message table; ``live_rows`` lists the release rows live at exit
    # (and maps old rows to new ones during a compaction)
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
    ("live_rows", "i8", "rows"),
    # late-delivery log: dense id and latency of each delivery too late
    # for the count table
    ("log_cid", "i8", "log"),
    ("log_lat", "i8", "log"),
)

_RULES = ("1", "n", "n*n", "conns", "cids", "levels", "lat", "rows", "log")
_HEADER = len(WORKSPACE)
_FIELD = {name: i for i, (name, _, _) in enumerate(WORKSPACE)}
_FIELD_RULE = [_RULES.index(rule) for _, _, rule in WORKSPACE]
_DTYPE = {"i8": np.int64, "u8": np.uint64, "f8": np.float64}
# Scalars lead the table: the int64 ones, then the float64 ones.
_INT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "i8")]
_FLOAT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "f8")]
_N_SCALARS = len(_INT_SCALARS) + len(_FLOAT_SCALARS)
assert [n for n, _, _ in WORKSPACE[:_N_SCALARS]] == _INT_SCALARS + _FLOAT_SCALARS
# The message table and the log close the table, so every offset before
# them depends on the shape alone.
_TABLE = _FIELD_RULE.index(_RULES.index("rows"))
_N_ROW_FIELDS = _FIELD_RULE.count(_RULES.index("rows"))
_N_LOG_FIELDS = _FIELD_RULE.count(_RULES.index("log"))
assert _FIELD_RULE[_TABLE:] == [_RULES.index("rows")] * _N_ROW_FIELDS + [
    _RULES.index("log")
] * _N_LOG_FIELDS


@functools.lru_cache(maxsize=64)
def _head_offsets(shape: tuple[int, int, int, int, int]) -> tuple[int, ...]:
    """Word offsets of the fields before the message table, and the
    table's own, for ``shape = (n, n_conns, n_cids, n_levels,
    lat_width)``."""
    n, n_conns, n_cids, n_levels, lat_width = shape
    sizes = (1, n, n * n, n_conns, n_cids, n_levels, n_cids * lat_width)
    return tuple(
        itertools.accumulate(
            [sizes[r] for r in _FIELD_RULE[:_TABLE]], initial=_HEADER
        )
    )


class _Workspace:
    """One call's buffer, laid out per :data:`WORKSPACE`.

    ``shape`` is ``(n, n_conns, n_cids, n_levels, lat_width)``; ``rows``
    and ``log`` are the message table's and the late log's capacities.
    Every field before the message table starts zeroed.
    """

    __slots__ = ("words", "floats", "offsets", "shape", "log")

    def __init__(self, shape: tuple[int, int, int, int, int], rows: int, log: int):
        head = _head_offsets(shape)
        table = head[-1]
        log_start = table + _N_ROW_FIELDS * rows
        offsets = (
            *head,
            *(table + k * rows for k in range(1, _N_ROW_FIELDS + 1)),
            *(log_start + k * log for k in range(1, _N_LOG_FIELDS + 1)),
        )
        # Zero what the kernel accumulates into; the kernel writes every
        # message-table and log word before it reads it.
        words = np.empty(offsets[-1], dtype=np.int64)
        words[:_HEADER] = offsets[:-1]
        words[_HEADER:table] = 0
        self.words = words
        self.floats = words.view(np.float64)
        self.offsets = offsets
        self.shape = shape
        self.log = log

    def col(self, name: str) -> np.ndarray:
        """The field ``name`` as an array of its dtype (a view)."""
        f = _FIELD[name]
        view = self.words[self.offsets[f] : self.offsets[f + 1]]
        dtype = WORKSPACE[f][1]
        return view if dtype == "i8" else view.view(_DTYPE[dtype])

    def block(self, first: str, last: str) -> np.ndarray:
        """The adjacent fields ``first`` .. ``last`` of one length rule as
        the rows of one 2-D int64 view."""
        f, g = _FIELD[first], _FIELD[last]
        assert len(set(_FIELD_RULE[f : g + 1])) == 1, (first, last)
        offsets = self.offsets
        return self.words[offsets[f] : offsets[g + 1]].reshape(
            g - f + 1, offsets[f + 1] - offsets[f]
        )

    def scalar(self, name: str) -> int:
        """The int64 scalar ``name``."""
        return int(self.words[_HEADER + _FIELD[name]])

    def set_scalars(self, **values: int | float) -> None:
        """Write scalars by name; the rest keep their value."""
        for name, value in values.items():
            f = _FIELD[name]
            if WORKSPACE[f][2] != "1":
                raise KeyError(f"not a workspace scalar: {name}")
            if WORKSPACE[f][1] == "f8":
                self.floats[_HEADER + f] = value
            else:
                self.words[_HEADER + f] = value

    def grown(self, rows: int) -> _Workspace:
        """A copy of this workspace with a message table of ``rows`` rows."""
        new = _Workspace(self.shape, rows, self.log)
        table = self.offsets[_TABLE]
        new.words[_HEADER:table] = self.words[_HEADER:table]
        used = self.scalar("n_rows")
        new.block("m_node", "live_rows")[:, :used] = self.block(
            "m_node", "live_rows"
        )[:, :used]
        new.block("log_cid", "log_lat")[:] = self.block("log_cid", "log_lat")
        new.set_scalars(row_cap=rows)
        return new


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
                [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(src)],
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


def _ingest(sim: Simulation) -> tuple[list[Message], list[int], list[int]] | str:
    """The live queue state as message rows, and the pending plan's
    transmissions and break denials as row indices; or why the compiled
    tier cannot take them."""
    RT = TrafficClass.RT_CONNECTION
    DELIVERED = MessageStatus.DELIVERED
    DROPPED = MessageStatus.DROPPED
    PENDING = MessageStatus.PENDING
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    queues = sim.queues
    pre_objs: list[Message] = []
    row_of: dict[int, int] = {}
    for i in range(sim.topology.n_nodes):
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
            if (
                msg.traffic_class is not RT
                or msg.deadline_slot is None
                or msg.connection_id is None
            ):
                return "live message outside an RT connection"
            row_of[id(msg)] = len(pre_objs)
            pre_objs.append(msg)

    plan_rows: list[list[int]] = []
    for planned in sim._pending[2:4]:
        rows = [row_of.get(id(tx.message)) for tx in planned]
        if None in rows:
            return "planned message not queued"
        plan_rows.append(cast("list[int]", rows))
    return pre_objs, plan_rows[0], plan_rows[1]


def try_run(sim: Simulation, n_slots: int) -> str | None:
    """Run ``n_slots`` on the compiled kernel if eligible.

    Returns ``None`` only after the simulation has been advanced (state,
    metrics and pending plan identical to the oracle), and
    otherwise the reason the compiled tier refused the call.  All
    eligibility checks happen *before* any mutation, so a refusal always
    leaves the simulation untouched for the Python kernel.

    The call is marshalled once, runs in one kernel entry (plus one per
    buffer growth or late-log drain) and is folded once.
    """
    fn = _kernel_fn()
    if fn is None:
        return "no compiled kernel"
    if sim.observer is not None:
        return "observer attached"
    if sim.drop_late:
        return "drop-late"
    profiler = sim.profiler
    t_phase = profiler.clock() if profiler is not None else 0.0
    if sim.metrics.fault_window_active:
        return "fault window open"
    n = sim.topology.n_nodes
    if n > _MAX_NODES:
        return f"ring wider than {_MAX_NODES} nodes"
    sources = cast("Sequence[ConnectionSource]", sim.sources)
    for src in sources:
        if type(src) is not ConnectionSource:
            return f"source {type(src).__name__} is not a ConnectionSource"
    ingested = _ingest(sim)
    if isinstance(ingested, str):
        return ingested
    pre_objs, plan_tx_rows, plan_den_rows = ingested
    conns = [src.connection for src in sources]
    protocol = sim.protocol
    route_masks = protocol.route_masks
    RT = TrafficClass.RT_CONNECTION

    # --- the release calendar over the call, counted arithmetically ----
    # Each source's first release is the one the oracle's calendar files
    # it under (``next_release_slot``); its releases stop at active_until
    # or at the call's end, whichever comes first.
    s = sim.current_slot
    end = s + n_slots
    conn_first: list[int] = []
    conn_stop: list[int] = []
    rel_counts: list[int] = []
    for src, conn in zip(sources, conns):
        until = src.active_until
        stop = end if until is None or until > end else until
        first = src.next_release_slot(s)
        if first is None or first >= stop:
            first, k = stop, 0
        else:
            k = (stop - 1 - first) // conn.period_slots + 1
        conn_first.append(first)
        conn_stop.append(stop)
        rel_counts.append(k)
    n_rel = sum(rel_counts)

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
    pre_dense = [_dense(cast(int, m.connection_id)) for m in pre_objs]
    n_cids = len(cid_list)
    n_pre = len(pre_objs)

    # --- marshal: one workspace, one block per column group -------------
    rt_lo, rt_hi = class_priority_range(RT)
    # Entry 0 of the table, the most urgent level, is unbounded below
    # (None); every level under it starts at an int.
    rt_lower = cast("tuple[int, ...]", level_starts(protocol.mapping, RT)[1:])
    deadlines = [c.relative_deadline_slots for c in conns]
    # A delivery meets its deadline with a latency of at most D + 1.
    lat_width = min(_LAT_WIDTH, max(deadlines, default=0) + 2)
    row_cap = n_pre + min(n_rel, _WINDOW_RELEASES)
    ws = _Workspace(
        (n, len(conns), n_cids, len(rt_lower), lat_width),
        row_cap,
        max(n, min(n_pre + n_rel, _WINDOW_RELEASES)),
    )
    arbiter = protocol.arbiter
    report = sim.metrics.report
    # The constructor's default factory resolves the module-level counter
    # at call time, so rebinding it hands the kernel a contiguous id
    # block while later Python-side constructions continue the sequence.
    id0 = next(_messages._message_ids)
    _messages._message_ids = itertools.count(id0 + n_rel)
    p_master, p_gap, _, _, p_nreq = sim._pending
    ws.set_scalars(
        n=n,
        end_slot=end,
        limit=1 if not arbiter.spatial_reuse else (arbiter.max_grants or 1 << 30),
        rt_lo=rt_lo,
        rt_hi=rt_hi,
        n_pre=n_pre,
        n_rel=n_rel,
        n_conns=len(conns),
        id0=id0,
        lat_width=lat_width,
        row_cap=row_cap,
        log_cap=ws.log,
        slot=s,
        n_rows=n_pre,
        master=p_master,
        prev_master=sim._prev_master,
        n_req=p_nreq,
        n_tx=len(plan_tx_rows),
        n_den=len(plan_den_rows),
        slot_length=sim.timing.slot_length_s,
        gap=p_gap,
        wall=report.wall_time_s,
        slot_time=report.slot_time_s,
        gap_time=report.gap_time_s,
    )
    plan = ws.block("tx_rows", "den_rows")
    plan[0, : len(plan_tx_rows)] = plan_tx_rows
    plan[1, : len(plan_den_rows)] = plan_den_rows
    # The engine admits only the plain EdfHandover, whose gap is Eq. 1.
    ws.col("gap_matrix")[:] = sim.topology.handover_gap_table
    if conns:
        ws.block("conn_node", "conn_due")[:] = [
            [c.source for c in conns],
            [c.size_slots for c in conns],
            deadlines,
            conn_cid,
            [route_masks(c.source, c.destinations)[0] for c in conns],
            [c.period_slots for c in conns],
            conn_stop,
            conn_first,
        ]
    ws.col("rt_level_start")[:] = rt_lower
    PENDING = MessageStatus.PENDING
    if n_pre:
        ws.block("m_node", "m_status")[:, :n_pre] = [
            [m.source for m in pre_objs],
            [m.size_slots for m in pre_objs],
            [m.sent_slots for m in pre_objs],
            [m.deadline_slot for m in pre_objs],
            [m.created_slot for m in pre_objs],
            [m.msg_id for m in pre_objs],
            pre_dense,
            [route_masks(m.source, m.destinations)[0] for m in pre_objs],
            [0 if m.status is PENDING else 1 for m in pre_objs],
        ]
    if profiler is not None:
        t_phase = profiler.lap("ingest", t_phase)

    # --- run: re-enter after growing the table or draining the log -----
    late: dict[tuple[int, int], int] = {}
    while True:
        ret = fn(ws.words.ctypes.data)
        if ret == 0:
            break
        if ret == _RET_ROWS_FULL:
            ws = ws.grown(2 * ws.scalar("row_cap") + len(conns))
        elif ret == _RET_LOG_FULL:
            _drain_late_log(ws, late)
        else:
            raise RuntimeError(f"compiled slot kernel failed (code {ret})")
    _drain_late_log(ws, late)
    if profiler is not None:
        t_phase = profiler.lap("kernel", t_phase)
        profiler.count("compiled_windows", ws.scalar("n_compactions") + 1)

    _fold(sim, ws, n_slots, pre_objs, conns, cid_list, conn_cid, rel_counts, late)
    if profiler is not None:
        profiler.lap("fold", t_phase)
    return None


def _drain_late_log(ws: _Workspace, late: dict[tuple[int, int], int]) -> None:
    """Count the late log's ``(dense id, latency)`` pairs into ``late``
    and empty the log."""
    n_log = ws.scalar("n_log")
    if not n_log:
        return
    lat = ws.col("log_lat")[:n_log]
    span = int(lat.max()) + 1
    keys, counts = np.unique(
        ws.col("log_cid")[:n_log] * span + lat, return_counts=True
    )
    for key, k in zip(keys.tolist(), counts.tolist()):
        pair = divmod(key, span)
        late[pair] = late.get(pair, 0) + k
    ws.set_scalars(n_log=0)


def _fold(
    sim: Simulation,
    ws: _Workspace,
    n_slots: int,
    pre_objs: list[Message],
    conns: list[LogicalRealTimeConnection],
    cid_list: list[int],
    conn_cid: list[int],
    rel_counts: list[int],
    late: dict[tuple[int, int], int],
) -> None:
    """Fold the kernel's outputs back into the report, the queues and the
    pending plan.

    Python loops run over connections, the count table's non-zero cells,
    the late pairs, nodes and still-live messages, never over deliveries.
    """
    RT = TrafficClass.RT_CONNECTION
    PENDING = MessageStatus.PENDING
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    DELIVERED = MessageStatus.DELIVERED
    n = sim.topology.n_nodes
    report = sim.metrics.report
    out = ws.words[_HEADER : _HEADER + _N_SCALARS].tolist()
    fout = ws.floats[_HEADER : _HEADER + _N_SCALARS].tolist()
    F = _FIELD
    n_del = out[F["n_del"]]
    n_rel = out[F["n_released"]]
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
        # The count table's non-zero cells: one run of cells per dense
        # id, then the class's column sums.
        width = out[F["lat_width"]]
        flat = ws.col("lat_counts")
        cells = np.flatnonzero(flat)
        counts = flat[cells].tolist()
        dense, cell_lat = np.divmod(cells, width)
        lats = cell_lat.tolist()
        bounds = np.searchsorted(dense, range(len(cid_list) + 1)).tolist()
        for di, cid in enumerate(cid_list):
            lo, hi = bounds[di], bounds[di + 1]
            if lo < hi:
                hist = per_connection[cid].latency_counts
                for latency, k in zip(lats[lo:hi], counts[lo:hi]):
                    hist[latency] += k
        rt_counts = rt_stats.latency_counts
        totals = flat.reshape(len(cid_list), width).sum(axis=0)
        class_lat = np.flatnonzero(totals)
        for latency, k in zip(class_lat.tolist(), totals[class_lat].tolist()):
            rt_counts[latency] += k
        for (di, latency), k in late.items():
            rt_counts[latency] += k
            per_connection[cid_list[di]].latency_counts[latency] += k

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
    # Carried objects mutate in place (their rows stay the table's first
    # ``n_pre``); new messages materialise only while still live
    # (delivered releases never escaped the kernel and are unobservable,
    # exactly like the oracle's garbage).
    _STATUS = (PENDING, IN_TRANSIT, DELIVERED)
    n_pre = len(pre_objs)
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
    live_rows = ws.col("live_rows")[: out[F["n_live"]]]
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
    queues = sim.queues
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

    sim._resume(
        out[F["slot"]],
        out[F["prev_master"]],
        (
            out[F["master"]],
            fout[F["gap"]],
            _planned("tx_rows", out[F["n_tx"]]),
            _planned("den_rows", out[F["n_den"]]),
            out[F["n_req"]],
        ),
    )
