"""Outside-in span tracer owned by the benchmark.

The traced pass wraps the *public call boundaries* of each layer from
here -- instance attributes on the objects a workload built -- so
nothing under ``src/`` knows it is being measured.  (``PhaseProfiler``
is deliberately not used: attaching it reroutes the compiled vector
tier to the numpy one, which would measure a tier nobody runs.)

Two kinds of record, because the boundaries differ by five orders of
magnitude in call rate:

* a **span** ``[name, start, end, parent, rep]`` for coarse boundaries
  (one repetition, one ``Simulation.run`` call, one campaign phase);
* a **leaf** ``[calls, busy_s, useful, items]`` for hot boundaries
  (``messages_for_slot`` is called 16 times per simulated slot): the
  wrapper only adds into one shared cell, and the cell's growth is
  attributed to whichever span was innermost when it happened, at the
  next span boundary.

A span's *self time* is its duration minus the part of it its child
spans cover (overlaps counted once) minus the leaf time attributed to
it.  Everything stays in memory and is dumped once, at exit.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Field positions of one span record.
NAME, START, END, PARENT, REP = range(5)
#: Field positions of one leaf cell.
CALLS, BUSY, USEFUL, ITEMS = range(4)


class Tracer:
    """In-memory span and leaf recorder for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1, repetition]``.
        self.spans: list[list[Any]] = []
        #: Running totals per leaf name (what the wrappers add into).
        self.cells: dict[str, list[float]] = {}
        #: Leaf growth attributed to spans: ``{span index: {name: cell}}``.
        self.span_leaves: dict[int, dict[str, list[float]]] = {}
        #: Repetition stamped on new spans.
        self.rep = 0
        self._open = -1
        self._seen: dict[str, list[float]] = {}

    # -- spans ---------------------------------------------------------

    def _attribute(self) -> None:
        """Credit leaf growth since the last boundary to the open span."""
        for name, cell in self.cells.items():
            seen = self._seen.setdefault(name, [0, 0.0, 0, 0])
            if cell[CALLS] == seen[CALLS]:
                continue
            if self._open >= 0:
                into = self.span_leaves.setdefault(self._open, {}).setdefault(
                    name, [0, 0.0, 0, 0]
                )
                for i in range(4):
                    into[i] += cell[i] - seen[i]
            seen[:] = cell

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its index."""
        self._attribute()
        index = len(self.spans)
        record = [name, self.clock(), None, self._open, self.rep]
        self.spans.append(record)
        self._open = index
        try:
            yield index
        finally:
            record[END] = self.clock()
            self._attribute()
            self._open = record[PARENT]

    # -- leaves --------------------------------------------------------

    def cell(self, name: str) -> list[float]:
        """The running-total cell of leaf ``name`` (created at zero)."""
        return self.cells.setdefault(name, [0, 0.0, 0, 0])

    def wrap_leaf(
        self, fn: Callable[..., Any], name: str, sized: bool = False
    ) -> Callable[..., Any]:
        """``fn`` timed into leaf ``name``.

        With ``sized`` the result is a collection: a non-empty one
        counts as a *useful* call and its length adds to ``items``
        (polls that returned a message vs. polls that found nothing).
        """
        cell = self.cell(name)
        clock = self.clock
        if sized:

            def timed_sized(*args: Any) -> Any:
                t = clock()
                out = fn(*args)
                cell[BUSY] += clock() - t
                cell[CALLS] += 1
                if out:
                    cell[USEFUL] += 1
                    cell[ITEMS] += len(out)
                return out

            return timed_sized

        def timed(*args: Any, **kwargs: Any) -> Any:
            t = clock()
            out = fn(*args, **kwargs)
            cell[BUSY] += clock() - t
            cell[CALLS] += 1
            return out

        return timed

    def wrap_count(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with its calls counted but not timed.

        For a boundary whose callees are leaves themselves
        (``Simulation.step`` calls the sources, the protocol and the
        collector): timing it too would subtract that time twice from
        the enclosing span's self time.
        """
        cell = self.cell(name)

        def counted(*args: Any, **kwargs: Any) -> Any:
            cell[CALLS] += 1
            return fn(*args, **kwargs)

        return counted

    def instrument(
        self, obj: Any, attr: str, name: str, sized: bool = False
    ) -> None:
        """Shadow ``obj.attr`` with a leaf-timed instance attribute."""
        setattr(obj, attr, self.wrap_leaf(getattr(obj, attr), name, sized))

    # -- queries -------------------------------------------------------

    def leaf_total(self, name: str, field: int) -> float:
        """Total of one leaf field over the whole trace."""
        return self.cells[name][field] if name in self.cells else 0

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        times = self_times(self.spans, self.span_leaves)
        return sum(
            t for s, t in zip(self.spans, times) if s[NAME] == name
        )

    def dump(self) -> dict[str, Any]:
        """JSON-ready trace: spans, per-span leaves, self times."""
        self._attribute()
        return {
            "span_fields": ["name", "start", "end", "parent", "rep"],
            "leaf_fields": ["calls", "busy_s", "useful", "items"],
            "spans": self.spans,
            "span_leaves": {
                str(i): leaves for i, leaves in sorted(self.span_leaves.items())
            },
            "self_s": self_times(self.spans, self.span_leaves),
        }


def self_times(
    spans: list[list[Any]],
    span_leaves: dict[int, dict[str, list[float]]] | None = None,
) -> list[float]:
    """Self time of each span, in span order.

    Duration minus the union of the direct children's intervals (two
    overlapping children cover their overlap once; a child is clipped
    to its parent) minus the busy time of the leaves attributed to the
    span.  Unfinished spans have no self time (0.0).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[END] is not None and span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    out: list[float] = []
    for index, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        lo, hi = span[START], span[END]
        covered = 0.0
        edge = lo
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, edge), min(end, hi)
            if end > start:
                covered += end - start
                edge = end
        leaf_busy = sum(
            cell[BUSY]
            for cell in (span_leaves or {}).get(index, {}).values()
        )
        out.append((hi - lo) - covered - leaf_busy)
    return out
