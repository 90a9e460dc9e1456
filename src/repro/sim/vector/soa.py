"""Packed-field layout of the vector tiers' arbitration key.

Both vector tiers reduce arbitration over a single *packed* integer per
requesting node that mirrors how the paper tiles the collection-phase
packet (Figure 4): the 5-bit Table 1 priority level in the high bits and
a tie-break derived from the node index in the low bits, so one
descending sort over the packed values yields exactly the oracle's
``(-priority, node)`` grant order.

Packing layout (LSB on the right)::

    | priority (5 bits used) | PACKED_NODE_MASK - node (16 bits) |

``PACKED_NODE_MASK - node`` inverts the node index so that *larger*
packed values win ties at *smaller* node ids, matching the arbitration
sort key.  Priority 0 ("nothing to send", Table 1) never appears for a
queue head, so ``0`` doubles as the "no request" value.  The compiled
kernel spells the same shift and mask as literals; the tiling and that
mirror are pinned by ``tests/sim/vector/test_soa.py``.
"""

from __future__ import annotations

from repro.phy.packets import MAX_PRIORITY

#: Bits reserved for the node tie-break below the priority field.
PACKED_NODE_BITS: int = 16

#: Mask of the node tie-break field; also the largest supported node id.
PACKED_NODE_MASK: int = (1 << PACKED_NODE_BITS) - 1

#: Left shift applied to the 5-bit priority when packing.
PACKED_PRIO_SHIFT: int = PACKED_NODE_BITS

#: Largest packed value any request can take; fits an int64 with
#: headroom.
PACKED_MAX: int = (MAX_PRIORITY << PACKED_PRIO_SHIFT) | PACKED_NODE_MASK
