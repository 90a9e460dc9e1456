"""Optimal grant sets: how good is the master's greedy sweep?

The master "tries to fulfil as many of the N requests as possible"
(Section 3) by sweeping in priority order and granting everything
non-conflicting.  Priority order is the right choice for real-time
behaviour (the urgent message must never lose to a clever packing), but
it is not throughput-optimal: a long high-priority segment can block
several short lower-priority ones.

This module computes the *maximum-cardinality* set of pairwise
non-overlapping requests -- the classic circular-arc scheduling problem
-- so the ablation benchmark can measure the throughput the protocol
gives up for its priority discipline.  With at most one request per node
(N <= 64 in any realistic ring) an exact algorithm is cheap: fix each
arc that could be "first", cut the circle at its start, and run the
standard greedy earliest-end interval scheduling on the remaining line;
also consider the all-arcs-are-full-circle degenerate cases.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.arbitration import Arbiter
from repro.ring.segments import mask_to_links, masks_overlap
from repro.ring.topology import RingTopology


def _mask_to_arc(topology: RingTopology, mask: int) -> tuple[int, int]:
    """Decompose a contiguous link mask into ``(start_link, length)``."""
    n = topology.n_nodes
    links = set(mask_to_links(mask))
    if not links:
        raise ValueError("empty mask has no arc")
    if len(links) == n:
        return (0, n)
    # The start is the occupied link whose predecessor is unoccupied.
    for link in links:
        if (link - 1) % n not in links:
            return (link, len(links))
    raise ValueError(f"mask {mask:#x} is not a contiguous segment")


def max_compatible_requests(
    topology: RingTopology, masks: Sequence[int], forbidden_mask: int = 0
) -> int:
    """Maximum number of pairwise non-overlapping request masks.

    ``forbidden_mask`` (e.g. the clock-break link) excludes any request
    overlapping it, mirroring the feasibility rule the real sweep
    applies.  Exact, O(k^2 log k) for ``k`` requests.
    """
    n = topology.n_nodes
    usable = [
        m for m in masks if m != 0 and not masks_overlap(m, forbidden_mask)
    ]
    if not usable:
        return 0
    arcs = [_mask_to_arc(topology, m) for m in usable]
    # A full-circle arc conflicts with everything: it alone is a set of 1.
    best = 1 if any(length == n for _, length in arcs) else 0
    proper = [(s, l) for s, l in arcs if l < n]
    if not proper:
        return best

    # Try each arc as the first one kept: cut the circle at its start.
    for cut_start, cut_len in set(proper):
        # Linearise: position of link x relative to the cut.
        def rel(x: int) -> int:
            return (x - cut_start) % n

        chosen = 1
        occupied_end = cut_len  # links [0, cut_len) taken (relative)
        # Remaining candidates must lie entirely in [occupied_end, n).
        rest = []
        for s, l in proper:
            if (s, l) == (cut_start, cut_len):
                continue
            rs = rel(s)
            if rs >= occupied_end and rs + l <= n:
                rest.append((rs, rs + l))
        # Greedy earliest-end on a line is optimal.
        rest.sort(key=lambda iv: iv[1])
        cursor = occupied_end
        for start, end in rest:
            if start >= cursor:
                chosen += 1
                cursor = end
        best = max(best, chosen)
    return best


def greedy_priority_grant_count(
    topology: RingTopology,
    requests: Sequence[tuple[int, int]],
    forbidden_mask: int = 0,
) -> int:
    """Grants the real sweep produces: ``requests`` are ``(priority,
    mask)`` pairs, swept in descending priority (ties keep input order,
    mirroring the node-index tie-break) by :meth:`Arbiter.grant_sweep`,
    with each request's index standing in for its node."""
    n = len(requests)
    if not n:
        return 0
    keys = [priority * n + (n - 1 - i) for i, (priority, _) in enumerate(requests)]
    masks = [mask for _, mask in requests]
    _, granted, _ = Arbiter().grant_sweep(n, keys, masks, forbidden_mask)
    return len(granted)
