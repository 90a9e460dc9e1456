"""Struct-of-arrays state and packed-field layout for the vector kernel.

The kernel keeps per-node state as parallel arrays indexed by node id --
the struct-of-arrays twin of the per-node ``NodeQueues``/``CollectionRequest``
object graph the oracle walks.  Arbitration then reduces over a single
*packed* integer field per node that mirrors how the paper tiles the
collection-phase packet (Figure 4): the 5-bit Table 1 priority level in
the high bits and a tie-break derived from the node index in the low
bits, so one ``argmax``/descending sort over the packed array yields
exactly the oracle's ``(-priority, node)`` grant order.

Packing layout (LSB on the right)::

    | priority (5 bits used) | PACKED_NODE_MASK - node (16 bits) |

``PACKED_NODE_MASK - node`` inverts the node index so that *larger*
packed values win ties at *smaller* node ids, matching the arbitration
sort key.  Priority 0 ("nothing to send", Table 1) never appears for a
queue head, so ``0`` doubles as the "no request" sentinel in the packed
array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.phy.packets import MAX_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.periodic import ConnectionSource

#: Bits reserved for the node tie-break below the priority field.
PACKED_NODE_BITS: int = 16

#: Mask of the node tie-break field; also the largest supported node id.
PACKED_NODE_MASK: int = (1 << PACKED_NODE_BITS) - 1

#: Left shift applied to the 5-bit priority when packing.
PACKED_PRIO_SHIFT: int = PACKED_NODE_BITS

#: Largest packed value any request can take; must fit ``int64`` with
#: headroom so numpy reductions never overflow.  The tiling and the
#: ``_ckernel.c`` mirror of shift and mask are pinned by
#: ``tests/sim/vector/test_soa.py``.
PACKED_MAX: int = (MAX_PRIORITY << PACKED_PRIO_SHIFT) | PACKED_NODE_MASK

#: Sentinel "this priority bucket never expires" value for ``prio_until``
#: entries (NRT requests and already-late saturated heads).  Far above
#: any reachable slot index but small enough that ``+ 1`` stays in int64.
PRIO_UNTIL_FOREVER: int = 1 << 62

#: Node count at and above which arbitration uses the numpy masked
#: argsort reduction instead of the scalar ``sorted``; below this the
#: interpreter beats the ufunc dispatch overhead.
VECTOR_SWEEP_MIN_NODES: int = 64


@dataclass
class SoAState:
    """Per-node arrays the kernel reduces over.

    ``packed`` is the arbitration field described in the module docstring
    (0 = no request); ``prio_until`` is the last planning slot for which
    the cached priority of the node's head is still exact under the
    active laxity mapping; ``alive`` tracks node liveness (all-True
    today: fault models force the oracle engine, but the array keeps the
    layout ready for an in-kernel fault path).
    """

    n_nodes: int
    packed: np.ndarray = field(init=False)
    prio_until: np.ndarray = field(init=False)
    alive: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not (2 <= self.n_nodes <= PACKED_NODE_MASK):
            raise ValueError(
                f"vector kernel supports 2..{PACKED_NODE_MASK} nodes, "
                f"got {self.n_nodes}"
            )
        self.packed = np.zeros(self.n_nodes, dtype=np.int64)
        self.prio_until = np.zeros(self.n_nodes, dtype=np.int64)
        self.alive = np.ones(self.n_nodes, dtype=bool)

    def store(self, packed: list[int], prio_until: list[int]) -> None:
        """Write the kernel's scalar mirrors back into the arrays."""
        self.packed[:] = packed
        self.prio_until[:] = prio_until


def arbitration_order(packed: np.ndarray) -> list[int]:
    """Grant-sweep visit order as a masked argsort reduction.

    Returns requesting node ids ordered by descending packed value --
    the oracle's ``sorted(entries, key=(-priority, node))`` -- using one
    vectorised ``argsort`` over the non-zero (requesting) lanes.  Packed
    values are unique (the node field is a bijection), so no stable-sort
    qualifier is needed.
    """
    lanes = np.nonzero(packed)[0]
    order = lanes[np.argsort(packed[lanes])][::-1]
    return [int(node) for node in order]


def release_schedule(
    sources: Sequence[ConnectionSource], lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every periodic release of ``sources`` in the window ``[lo, hi)``.

    Returns ``(slots, source_index)`` as int64 arrays in the oracle's
    polling order: ascending slot, and source-list order among the
    releases of one slot.  Each source contributes one ``arange`` over
    its phase/period clipped to its ``active_from``/``active_until``
    span, and one ``lexsort`` interleaves them -- the schedule the numpy
    kernel ingests instead of polling sources slot by slot (the compiled
    kernel walks the same calendar in C, see ``ckernel.try_run``).
    """
    parts_t: list[np.ndarray] = []
    parts_i: list[np.ndarray] = []
    for idx, src in enumerate(sources):
        conn = src.connection
        wlo = lo if lo >= src.active_from else src.active_from
        whi = hi
        until = src.active_until
        if until is not None and until < whi:
            whi = until
        first = conn.next_release_at_or_after(wlo)
        if first >= whi:
            continue
        ts = np.arange(first, whi, conn.period_slots, dtype=np.int64)
        parts_t.append(ts)
        parts_i.append(np.full(len(ts), idx, dtype=np.int64))
    if not parts_t:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    t = np.concatenate(parts_t)
    i = np.concatenate(parts_i)
    order = np.lexsort((i, t))
    return t[order], i[order]
