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
and the kernel counts releases, deliveries and misses per connection and
latencies per (connection, latency) in a narrow table, logging only
deliveries too late for it (see "The compiled tier's exit fold" in
``DESIGN.md``).  Its last return lists every histogram the fold reads
as runs of (key, count) cells and compacts the table to the carried and
still-live rows, so the fold is one pass over the dense connection ids
plus loops over the late log's distinct pairs, nodes and still-live
messages, never over deliveries.

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
import struct
import subprocess
import tempfile
from collections import Counter
from collections.abc import Sequence
from heapq import heapify
from pathlib import Path
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.core import messages as _messages
from repro.core.mapping import level_starts
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import RT_CONNECTION_RANGE, TrafficClass
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
#: ``"rows"`` per message-table row, ``"log"`` per late-log entry,
#: ``"cells"`` a (key, count) pair for each of ``lat_width`` latencies per
#: dense connection id and for the class, and for two per node.  Scalars
#: come first, so scalar ``i`` is word ``len(WORKSPACE) + i``; the fields
#: of one rule are adjacent and the rules follow in ``_RULES`` order, so
#: each group is one 2-D block (:meth:`_Workspace.block`); the message
#: table, the log and the cell list come last.  Every field before them
#: starts zeroed, so every output starts at 0.
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
    ("n_cids", "i8", "1"),
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
    # transit, 2: a pending hand-over, 4: a pending break denial);
    # the call's last return writes the cell list's counts
    ("busy", "i8", "1"),
    ("packets", "i8", "1"),
    ("wasted", "i8", "1"),
    ("denials", "i8", "1"),
    ("n_del", "i8", "1"),
    ("n_missed", "i8", "1"),
    ("n_log", "i8", "1"),
    ("n_compactions", "i8", "1"),
    ("compacted", "i8", "1"),
    ("n_cells", "i8", "1"),
    ("n_class_cells", "i8", "1"),
    ("n_master_cells", "i8", "1"),
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
    # per dense connection id: releases, deliveries and misses, and the
    # number of the id's cells in the cell list
    ("cid_released", "i8", "cids"),
    ("cid_delivered", "i8", "cids"),
    ("cid_missed", "i8", "cids"),
    ("cid_cells", "i8", "cids"),
    # per RT level below the most urgent: word ``k`` is the laxity at
    # which level ``rt_hi - 1 - k`` starts (``level_starts`` past entry 0)
    ("rt_level_start", "i8", "levels"),
    # deliveries per (dense id, latency): word ``di * lat_width + latency``
    ("lat_counts", "i8", "lat"),
    # message table, which the call's last return compacts: the carried
    # rows, then the release rows still live, ``n_rows`` in all;
    # ``row_map`` maps old rows to new ones during a compaction
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
    ("row_map", "i8", "rows"),
    # late-delivery log: dense id and latency of each delivery too late
    # for the count table
    ("log_cid", "i8", "log"),
    ("log_lat", "i8", "log"),
    # the cell list, written at the call's end: every histogram the fold
    # reads as runs of (key, count) pairs, positive counts in key order --
    # each dense id's ``cid_cells`` latencies, the class's
    # ``n_class_cells`` (the count table's column sums), the masters'
    # ``n_master_cells`` and the hand-over hops', ``n_cells`` in all
    ("cells", "i8", "cells"),
)

_RULES = ("1", "n", "n*n", "conns", "cids", "levels", "lat", "rows", "log", "cells")
_HEADER = len(WORKSPACE)
_FIELD = {name: i for i, (name, _, _) in enumerate(WORKSPACE)}
_FIELD_RULE = [_RULES.index(rule) for _, _, rule in WORKSPACE]
assert _FIELD_RULE == sorted(_FIELD_RULE), "fields of one rule must be adjacent"
_DTYPE = {"i8": np.int64, "u8": np.uint64, "f8": np.float64}
# Scalars lead the table: the int64 ones, then the float64 ones.
_INT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "i8")]
_FLOAT_SCALARS = [n for n, dtype, rule in WORKSPACE if (rule, dtype) == ("1", "f8")]
_N_SCALARS = len(_INT_SCALARS) + len(_FLOAT_SCALARS)
assert [n for n, _, _ in WORKSPACE[:_N_SCALARS]] == _INT_SCALARS + _FLOAT_SCALARS
# The message table, the log and the cell list close the table, so every
# offset before them depends on the shape alone.
_TABLE = _FIELD_RULE.index(_RULES.index("rows"))
_N_ROW_FIELDS, _N_LOG_FIELDS = (
    _FIELD_RULE.count(_RULES.index(rule)) for rule in ("rows", "log")
)
assert WORKSPACE[_TABLE + _N_ROW_FIELDS + _N_LOG_FIELDS :] == (
    ("cells", "i8", "cells"),
)
#: The fields the entry marshal writes, in WORKSPACE order: the int64
#: scalars before the outputs (``n`` .. ``n_den``), the float64 scalars,
#: the pending plan's rows, the gap table, the connection columns and
#: the level starts.  Every other field before the message table starts
#: zeroed.
_ENTRY_FIELDS = (
    _INT_SCALARS[: _INT_SCALARS.index("busy")]
    + _FLOAT_SCALARS
    + ["tx_rows", "den_rows", "gap_matrix"]
    + [name for name, _, rule in WORKSPACE if rule == "conns"]
    + ["rt_level_start"]
)
assert _ENTRY_FIELDS == sorted(_ENTRY_FIELDS, key=_FIELD.__getitem__)
_STRUCT_CODE = {"i8": "q", "u8": "Q", "f8": "d"}
# The pending plan's rows follow the scalars, so the fold reads them all
# at once (_exit_read).
assert (_FIELD["tx_rows"], _FIELD["den_rows"]) == (_N_SCALARS, _N_SCALARS + 1)


@functools.lru_cache(maxsize=64)
def _exit_read(n: int) -> struct.Struct:
    """The fold's one read: every scalar, int64 ones then float64 ones,
    then ``tx_rows`` and ``den_rows`` (``n`` words each)."""
    return struct.Struct(
        f"={len(_INT_SCALARS)}q{len(_FLOAT_SCALARS)}d{2 * n}q"
    )


@functools.lru_cache(maxsize=64)
def _head_image(
    shape: tuple[int, int, int, int, int],
) -> tuple[tuple[int, ...], struct.Struct, tuple[int | float, ...]]:
    """The layout of words ``0`` .. the message table for ``shape = (n,
    n_conns, n_cids, n_levels, lat_width)``: the word offsets of the
    fields before the table, and the table's own; the packer of those
    words -- the header's offsets, then each entry field's words, every
    other field zero -- and a blank entry (every entry field zero)."""
    n, n_conns, n_cids, n_levels, lat_width = shape
    sizes = (1, n, n * n, n_conns, n_cids, n_levels, n_cids * lat_width)
    lengths = [sizes[r] for r in _FIELD_RULE[:_TABLE]]
    offsets = tuple(itertools.accumulate(lengths, initial=_HEADER))
    codes = [f"={_HEADER}q"]
    blank: list[int | float] = []
    for (name, dtype, _), length in zip(WORKSPACE, lengths):
        if name in _ENTRY_FIELDS:
            codes.append(f"{length}{_STRUCT_CODE[dtype]}")
            blank += [0.0 if dtype == "f8" else 0] * length
        else:
            codes.append(f"{8 * length}x")
    return offsets, struct.Struct("".join(codes)), tuple(blank)


class _Workspace:
    """One call's buffer, laid out per :data:`WORKSPACE`.

    ``shape`` is ``(n, n_conns, n_cids, n_levels, lat_width)``; ``rows``
    and ``log`` are the message table's and the late log's capacities.
    ``entry`` holds the words of the :data:`_ENTRY_FIELDS`, in order (all
    zero when omitted); every other field before the message table
    starts zeroed.  The header and everything before the table are
    written by one pack.
    """

    __slots__ = ("words", "floats", "offsets", "shape", "log", "address")

    def __init__(
        self,
        shape: tuple[int, int, int, int, int],
        rows: int,
        log: int,
        entry: Sequence[int | float] | None = None,
    ):
        head, image, blank = _head_image(shape)
        table = head[-1]
        n, _, n_cids, _, lat_width = shape
        # The cell list's runs, two words a cell: a latency run per dense
        # id and the class's, a master run and a hop run.
        cells = 2 * ((n_cids + 1) * lat_width + 2 * n)
        offsets = head[:-1] + tuple(
            itertools.accumulate(
                [rows] * _N_ROW_FIELDS + [log] * _N_LOG_FIELDS + [cells],
                initial=table,
            )
        )
        # The kernel writes every message-table, log and cell word before
        # it reads it.
        words = np.empty(offsets[-1], dtype=np.int64)
        image.pack_into(
            words, 0, *offsets[:-1], *(blank if entry is None else entry)
        )
        self.words = words
        self.floats = words.view(np.float64)
        self.offsets = offsets
        self.shape = shape
        self.log = log
        #: The buffer's base address, the kernel's one argument.
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(words))

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
        assert _FIELD_RULE[f] == _FIELD_RULE[g], (first, last)
        offsets = self.offsets
        return self.words[offsets[f] : offsets[g + 1]].reshape(
            g - f + 1, offsets[f + 1] - offsets[f]
        )

    def fill(self, first: str, last: str, records: list[tuple[int, ...]]) -> None:
        """Write one tuple per record across the adjacent fields ``first``
        .. ``last`` of one length rule: record ``i`` fills word ``i`` of
        each field."""
        if records:
            self.block(first, last)[:, : len(records)].T[:] = records

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
        new.block("m_node", "row_map")[:, :used] = self.block(
            "m_node", "row_map"
        )[:, :used]
        # The log and the cell list close the buffer, both sized alike.
        log = self.offsets[_FIELD["log_cid"]]
        new.words[new.offsets[_FIELD["log_cid"]] :] = self.words[log:]
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
        if q._be or q._nrt:
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
    leaves the simulation untouched for the Python kernel.  The
    configuration's refusals come before the compiler's, so a
    configuration the tier cannot take is named the same on every host.

    The call is marshalled once, runs in one kernel entry (plus one per
    buffer growth or late-log drain) and is folded once.
    """
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
    fn = _kernel_fn()
    if fn is None:
        return "no compiled kernel"
    ingested = _ingest(sim)
    if isinstance(ingested, str):
        return ingested
    pre_objs, plan_tx_rows, plan_den_rows = ingested
    protocol = sim.protocol
    # ``protocol.route_masks`` without the call: one dict read per path,
    # the method only on a miss.
    route_cache = protocol._route_cache
    route_masks = protocol.route_masks

    # --- one pass over the sources: calendar, dense ids, constants ------
    # Each source's first release is the one the oracle's calendar files
    # it under (``ConnectionSource.next_release_slot``, spelled out: the
    # first release at or after the later of the slot and active_from);
    # its releases stop at active_until or at the call's end, whichever
    # comes first, and are counted arithmetically.  Dense connection ids
    # number the sourced connections first, then any live message's
    # connection that is no longer sourced (admission churn).  One tuple
    # per source holds its ``conn_node`` .. ``conn_due`` columns.
    s = sim.current_slot
    end = s + n_slots
    cid_index: dict[int, int] = {}
    conn_rows: list[tuple[int, ...]] = []
    n_rel = 0
    max_deadline = 0
    for src in sources:
        conn = src.connection
        node = conn.source
        period = conn.period_slots
        deadline = conn.relative_deadline_slots
        until = src.active_until
        stop = end if until is None or until > end else until
        start = src.active_from
        if start < s:
            start = s
        phase = conn.phase_slots
        first = phase if start <= phase else phase - (phase - start) // period * period
        if first < stop:
            n_rel += (stop - 1 - first) // period + 1
        else:
            first = stop
        if deadline > max_deadline:
            max_deadline = deadline
        masks = route_cache.get((node, conn.destinations))
        if masks is None:
            masks = route_masks(node, conn.destinations)
        conn_rows.append(
            (
                node,
                conn.size_slots,
                deadline,
                cid_index.setdefault(conn.connection_id, len(cid_index)),
                masks[0],
                period,
                stop,
                first,
            )
        )
    PENDING = MessageStatus.PENDING
    # The carried messages' ``m_node`` .. ``m_status`` columns.
    pre_rows = [
        (
            m.source,
            m.size_slots,
            m.sent_slots,
            m.deadline_slot,
            m.created_slot,
            m.msg_id,
            cid_index.setdefault(cast(int, m.connection_id), len(cid_index)),
            route_masks(m.source, m.destinations)[0],
            0 if m.status is PENDING else 1,
        )
        for m in pre_objs
    ]
    cid_list = list(cid_index)
    n_cids = len(cid_list)
    n_pre = len(pre_objs)

    # --- marshal: one workspace, its head written by one pack ------------
    rt_lo, rt_hi = RT_CONNECTION_RANGE
    # Entry 0 of the table, the most urgent level, is unbounded below
    # (None); every level under it starts at an int.
    rt_lower = cast(
        "tuple[int, ...]",
        level_starts(protocol.mapping, TrafficClass.RT_CONNECTION)[1:],
    )
    # A delivery meets its deadline with a latency of at most D + 1.
    lat_width = min(_LAT_WIDTH, max_deadline + 2)
    row_cap = n_pre + min(n_rel, _WINDOW_RELEASES)
    log_cap = max(n, min(n_pre + n_rel, _WINDOW_RELEASES))
    arbiter = protocol.arbiter
    report = sim.metrics.report
    # The constructor's default factory resolves the module-level counter
    # at call time, so rebinding it hands the kernel a contiguous id
    # block while later Python-side constructions continue the sequence.
    id0 = next(_messages._message_ids)
    _messages._message_ids = itertools.count(id0 + n_rel)
    p_master, p_gap, _, _, p_nreq = sim._pending
    n_tx = len(plan_tx_rows)
    n_den = len(plan_den_rows)
    # The words of the _ENTRY_FIELDS, in order.
    entry = [
        # ``n`` .. ``n_den``
        n,
        end,
        1 if not arbiter.spatial_reuse else (arbiter.max_grants or 1 << 30),
        rt_lo,
        rt_hi,
        n_pre,
        n_rel,
        len(sources),
        n_cids,
        id0,
        lat_width,
        row_cap,
        log_cap,
        s,
        n_pre,
        0,
        p_master,
        sim._prev_master,
        p_nreq,
        n_tx,
        n_den,
        # ``slot_length`` .. ``gap_time``
        sim.timing.slot_length_s,
        p_gap,
        report.wall_time_s,
        report.slot_time_s,
        report.gap_time_s,
        # ``tx_rows`` and ``den_rows``, n words each
        *plan_tx_rows,
        *[0] * (n - n_tx),
        *plan_den_rows,
        *[0] * (n - n_den),
        # The engine admits only the plain EdfHandover, whose gap is Eq. 1.
        *sim.topology.handover_gap_table,
        # ``conn_node`` .. ``conn_due``, a column at a time
        *itertools.chain.from_iterable(zip(*conn_rows)),
        *rt_lower,
    ]
    ws = _Workspace(
        (n, len(sources), n_cids, len(rt_lower), lat_width),
        row_cap,
        log_cap,
        entry,
    )
    ws.fill("m_node", "m_status", pre_rows)
    if profiler is not None:
        t_phase = profiler.lap("ingest", t_phase)

    # --- run: re-enter after growing the table or draining the log -----
    late: dict[tuple[int, int], int] = {}
    while True:
        ret = fn(ws.address)
        if ret == 0:
            break
        if ret == _RET_ROWS_FULL:
            ws = ws.grown(2 * ws.scalar("row_cap") + len(sources))
        elif ret == _RET_LOG_FULL:
            _drain_late_log(ws, late)
        else:
            raise RuntimeError(f"compiled slot kernel failed (code {ret})")
    _drain_late_log(ws, late)
    if profiler is not None:
        t_phase = profiler.lap("kernel", t_phase)
        profiler.count("compiled_windows", ws.scalar("n_compactions") + 1)

    _fold(sim, ws, n_slots, pre_objs, sources, cid_list, late)
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


def _add_counts(counts: Counter[int], pairs: list[Any]) -> None:
    """Add each ``[key, count]`` of ``pairs``, all counts positive, to
    ``counts``; into an empty histogram with one ``dict.update``."""
    if counts:
        get = counts.get
        for key, k in pairs:
            counts[key] = get(key, 0) + k
    else:
        dict.update(counts, pairs)


def _fold(
    sim: Simulation,
    ws: _Workspace,
    n_slots: int,
    pre_objs: list[Message],
    sources: Sequence[ConnectionSource],
    cid_list: list[int],
    late: dict[tuple[int, int], int],
) -> None:
    """Fold the kernel's outputs back into the report, the queues and the
    pending plan.

    One pass over the dense connection ids books each id's releases,
    deliveries, deadline verdicts and latency cells into its
    ``ConnectionStats``, made on the id's first release or delivery; the
    cell list's last three runs are the class's latencies, the masters'
    slots and the hand-over hops.  The other Python loops run over the
    late pairs, nodes and still-live messages, never over deliveries.
    """
    RT = TrafficClass.RT_CONNECTION
    PENDING = MessageStatus.PENDING
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    DELIVERED = MessageStatus.DELIVERED
    n = sim.topology.n_nodes
    report = sim.metrics.report
    # Every scalar in WORKSPACE order, then the pending plan's rows.
    out = _exit_read(n).unpack_from(ws.words, 8 * _HEADER)
    F = _FIELD
    per_connection = report.per_connection
    # One [key, count] list per cell.
    cells = ws.col("cells")[: 2 * out[F["n_cells"]]].reshape(-1, 2).tolist()
    new_counter = Counter.__new__
    update = dict.update
    stats_of = per_connection.get
    lo = 0
    for cid, k_rel, k_del, k_missed, k_cells in zip(
        cid_list, *ws.block("cid_released", "cid_cells").tolist()
    ):
        if not (k_rel or k_del):
            continue
        hi = lo + k_cells
        cstat = stats_of(cid)
        if cstat is None:
            # The id's first release or delivery: one constructor call,
            # with the histogram filled by one ``dict.update``
            # (``Counter()`` runs ``Counter.__init__``, Python code, to
            # make the same empty instance ``Counter.__new__`` does).
            latency_counts: Counter[int] = new_counter(Counter)
            update(latency_counts, cells[lo:hi])
            per_connection[cid] = ConnectionStats(
                cid,
                released=k_rel,
                delivered=k_del,
                deadline_met=k_del - k_missed,
                deadline_missed=k_missed,
                latency_counts=latency_counts,
            )
        else:
            cstat.released += k_rel
            cstat.delivered += k_del
            cstat.deadline_missed += k_missed
            cstat.deadline_met += k_del - k_missed
            _add_counts(cstat.latency_counts, cells[lo:hi])
        lo = hi
    rt_stats = report.per_class[RT]
    n_del = out[F["n_del"]]
    missed_total = out[F["n_missed"]]
    rt_stats.released += out[F["n_released"]]
    rt_stats.delivered += n_del
    rt_stats.deadline_missed += missed_total
    rt_stats.deadline_met += n_del - missed_total
    for counts_of, k_cells in (
        (rt_stats.latency_counts, out[F["n_class_cells"]]),
        (report.master_slots, out[F["n_master_cells"]]),
        (report.handover_hops, len(cells) - lo),
    ):
        hi = lo + k_cells
        _add_counts(counts_of, cells[lo:hi])
        lo = hi
    for (di, latency), k in late.items():
        rt_stats.latency_counts[latency] += k
        per_connection[cid_list[di]].latency_counts[latency] += k

    report.wall_time_s = out[F["wall"]]
    report.slot_time_s = out[F["slot_time"]]
    report.gap_time_s = out[F["gap_time"]]
    report.slots_simulated += n_slots
    report.busy_slots += out[F["busy"]]
    report.packets_sent += out[F["packets"]]
    report.wasted_grants += out[F["wasted"]]
    report.break_denials += out[F["denials"]]

    # --- write the message/queue state back ----------------------------
    # The table holds the carried rows, then the release rows still live.
    # Carried objects mutate in place; new messages materialise only
    # while still live (delivered releases never escaped the kernel and
    # are unobservable, exactly like the oracle's garbage).
    _STATUS = (PENDING, IN_TRANSIT, DELIVERED)
    n_pre = len(pre_objs)
    _, _, sent, deadlines, created, ids, _, links, status, completed, conn_of = (
        ws.block("m_node", "m_conn")[:, : out[F["n_rows"]]].tolist()
    )
    live_by_node: list[list[tuple[int, int, Message]]] = [[] for _ in range(n)]
    for msg, k_sent, st, done in zip(pre_objs, sent, status, completed):
        msg.sent_slots = k_sent
        msg.status = _STATUS[st]
        if st == 2:
            msg.completed_slot = done
        else:
            live_by_node[msg.source].append((msg.deadline_slot, msg.msg_id, msg))
    objs = list(pre_objs)
    for row in range(n_pre, len(sent)):
        conn = sources[conn_of[row]].connection
        deadline = deadlines[row]
        mid = ids[row]
        msg = Message(
            conn.source,
            conn.destinations,
            RT,
            conn.size_slots,
            created[row],
            deadline,
            conn.connection_id,
            mid,
            sent[row],
            _STATUS[status[row]],
            period_slots=conn.period_slots,
        )
        objs.append(msg)
        live_by_node[conn.source].append((deadline, mid, msg))
    queues = sim.queues
    for i, entries in enumerate(live_by_node):
        q = queues[i]
        if entries or q._rt:
            heapify(entries)
            q._rt[:] = entries
            q._head_valid = False

    # ``tx_rows`` and ``den_rows`` follow the scalars in ``out``.
    tx_at = _N_SCALARS
    den_at = _N_SCALARS + n
    sim._resume(
        out[F["slot"]],
        out[F["prev_master"]],
        (
            out[F["master"]],
            out[F["gap"]],
            _planned(objs, links, out[tx_at : tx_at + out[F["n_tx"]]]),
            _planned(objs, links, out[den_at : den_at + out[F["n_den"]]]),
            out[F["n_req"]],
        ),
    )


def _planned(
    objs: list[Message], links: list[int], rows: Sequence[int]
) -> tuple[PlannedTransmission, ...]:
    """The pending plan's transmissions (or break denials) at ``rows``."""
    return tuple(
        [
            PlannedTransmission(
                objs[row].source, objs[row], links[row], objs[row].destinations
            )
            for row in rows
        ]
    )
