"""The packed arbitration key tiles exactly, and the C kernel agrees.

The vector tiers pack each request as
``(priority << PACKED_PRIO_SHIFT) | (PACKED_NODE_MASK - node)`` so one
max-reduction is the grant order.  The compiled micro-kernel spells the
same shift and mask as literals, so a constant edit on one side only
would reorder grants on one backend; this pins both sides.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.phy.packets import MAX_PRIORITY
from repro.sim.vector import soa
from repro.sim.vector.soa import (
    PACKED_MAX,
    PACKED_NODE_BITS,
    PACKED_NODE_MASK,
    PACKED_PRIO_SHIFT,
)


def test_packed_layout_matches_ckernel():
    # A dense low node field.
    assert PACKED_NODE_MASK == (1 << PACKED_NODE_BITS) - 1
    # The priority field sits directly above it: no gap, no overlap.
    assert PACKED_PRIO_SHIFT == PACKED_NODE_BITS
    # The packed domain tops out where the Table 1 priority domain does.
    assert PACKED_MAX == (MAX_PRIORITY << PACKED_PRIO_SHIFT) | PACKED_NODE_MASK
    # The key fits an int64 ndarray with headroom.
    assert MAX_PRIORITY << PACKED_PRIO_SHIFT < 1 << 62

    c_source = (Path(soa.__file__).with_name("_ckernel.c")).read_text()
    assert re.search(rf"<<\s*{PACKED_PRIO_SHIFT}\b", c_source)
    assert re.search(rf"0x{PACKED_NODE_MASK:X}\b", c_source)
