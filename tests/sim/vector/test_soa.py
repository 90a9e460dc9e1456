"""The packed arbitration key tiles exactly, and the C kernel agrees.

The vector tiers pack each request as
``(priority << PACKED_PRIO_SHIFT) | (PACKED_NODE_MASK - node)`` so one
max-reduction is the grant order.  The compiled micro-kernel spells the
same shift and mask as literals, so a constant edit on one side only
would reorder grants on one backend; this pins both sides.  The same
holds for the compiled tier's workspace layout: one Python table, one C
enum, pinned equal here.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

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


def test_workspace_layout_matches_ckernel():
    """``ckernel.WORKSPACE`` and ``_ckernel.c``'s ``enum ws_field`` name
    the same fields in the same order, and the C side reads each field
    with the accessor of its dtype: one field out of place or retyped on
    one side would have the kernel read its neighbour's words."""
    from repro.sim.vector import ckernel

    c_source = (Path(soa.__file__).with_name("_ckernel.c")).read_text()
    body = re.search(r"enum ws_field \{(.*?)\};", c_source, re.S).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    enum = [name.strip() for name in body.split(",") if name.strip()]
    assert enum[-1] == "W_NFIELDS"
    assert enum[:-1] == [f"W_{name.upper()}" for name, _, _ in ckernel.WORKSPACE]

    accessor = {"i8": "I64", "u8": "U64", "f8": "F64"}
    declared = {f"W_{name.upper()}": dtype for name, dtype, _ in ckernel.WORKSPACE}
    used = re.findall(r"\b(I64|U64|F64)\((W_\w+)\)", c_source)
    assert {field for _, field in used} == set(declared)
    for macro, field in used:
        assert macro == accessor[declared[field]], field


def test_workspace_offsets_follow_the_table():
    """The header holds each field's word offset; the fields tile the
    buffer in table order, each as long as its length rule says."""
    from repro.sim.vector import ckernel

    n, conns, cids, levels, width, rows, log = 5, 3, 4, 6, 9, 7, 8
    ws = ckernel._Workspace((n, conns, cids, levels, width), rows, log)
    lengths = {
        "1": 1, "n": n, "n*n": n * n, "conns": conns, "cids": cids,
        "levels": levels, "lat": cids * width, "rows": rows, "log": log,
        "cells": 2 * ((cids + 1) * width + 2 * n),
    }
    assert set(lengths) == set(ckernel._RULES)
    header = ws.words[: len(ckernel.WORKSPACE)].tolist()
    position = len(ckernel.WORKSPACE)
    for (name, dtype, rule), offset in zip(ckernel.WORKSPACE, header):
        assert offset == position, name
        column = ws.col(name)
        assert len(column) == lengths[rule], name
        assert column.dtype == {"i8": "int64", "u8": "uint64", "f8": "float64"}[dtype]
        position += lengths[rule]
    assert position == len(ws.words)


def test_workspace_grows_its_message_table():
    """A grown workspace keeps every field's words, the message table's
    rows in use and the log, and reports its new row capacity."""
    from repro.sim.vector import ckernel

    ws = ckernel._Workspace((3, 2, 2, 4, 5), 6, 4)
    rng = np.random.default_rng(0)
    ws.words[len(ckernel.WORKSPACE) :] = rng.integers(
        0, 1 << 40, len(ws.words) - len(ckernel.WORKSPACE)
    )
    ws.set_scalars(n_rows=4, row_cap=6)
    grown = ws.grown(13)
    assert grown.scalar("row_cap") == 13
    for name, _, rule in ckernel.WORKSPACE:
        if name == "row_cap":
            continue
        old, new = ws.col(name), grown.col(name)
        if rule == "rows":
            assert len(new) == 13
            assert (new[:4] == old[:4]).all(), name
        else:
            assert (new == old).all(), name
