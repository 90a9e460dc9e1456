"""Replaying a JSONL event log back into run totals.

The event log is only trustworthy if it is a *complete* record: replaying
it must reproduce the totals the run itself reported.
:func:`replay_events` folds a stream of event dicts into a
:class:`LogSummary` whose released/delivered/missed/dropped counts, fault
tally, recovery count and slot coverage are directly comparable to a
:class:`~repro.sim.metrics.SimulationReport` -- the integration tests
assert equality, and ``repro inspect`` prints the summary for humans.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class LogSummary:
    """Aggregates reconstructed from one event log."""

    #: Event counts by ``kind`` (including the header).
    events_by_kind: Counter = field(default_factory=Counter)
    #: Individually logged (stepped) slots.
    slots_executed: int = 0
    #: Slots covered by fast-forward span events.
    slots_fast_forwarded: int = 0
    first_slot: int | None = None
    last_slot: int | None = None
    released: int = 0
    delivered: int = 0
    missed: int = 0
    dropped: int = 0
    packets_sent: int = 0
    #: Fault occurrences by kind, matching
    #: :attr:`~repro.sim.metrics.AvailabilityStats.fault_events` (a
    #: ``node_down`` event counts as a ``node_failure`` fault).
    fault_events: Counter = field(default_factory=Counter)
    recoveries: int = 0
    node_failures: int = 0
    node_rejoins: int = 0
    handovers: int = 0
    #: Admission-service requests by ``"op:outcome"`` (e.g.
    #: ``"open:accepted"``), reconstructed from ``service_request``
    #: events; directly comparable to the live service's counters.
    service_requests: Counter = field(default_factory=Counter)
    #: ``service_backpressure`` refusals (bounded queue full).
    service_backpressure: int = 0
    #: Controller utilisation after the last served service request
    #: (``None`` when the log carries no service traffic).  Exact float
    #: from the log: comparing it to the live controller is the
    #: bit-identity check.
    service_utilisation: float | None = None
    #: The ``run_header`` event, when the log carries one.
    header: dict | None = None

    @property
    def slots_covered(self) -> int:
        """Slots accounted for: stepped slots plus fast-forwarded spans."""
        return self.slots_executed + self.slots_fast_forwarded


def replay_events(events: Iterable[dict]) -> LogSummary:
    """Fold parsed event dicts (e.g. one per JSONL line) into a summary."""
    s = LogSummary()
    for event in events:
        kind = event.get("kind", "?")
        s.events_by_kind[kind] += 1
        if kind == "slot":
            s.slots_executed += 1
            slot = event["slot"]
            if s.first_slot is None:
                s.first_slot = slot
            s.last_slot = slot
            s.released += event.get("released", 0)
            s.delivered += event.get("delivered", 0)
            s.missed += event.get("missed", 0)
            s.dropped += event.get("dropped", 0)
            s.packets_sent += len(event.get("transmitted", ()))
        elif kind == "fast_forward":
            s.slots_fast_forwarded += event["n_slots"]
            if s.first_slot is None:
                s.first_slot = event["slot_start"]
            s.last_slot = event["slot_end"] - 1
        elif kind == "fault":
            s.fault_events[event["fault"]] += 1
        elif kind == "recovery":
            s.recoveries += 1
        elif kind == "node_down":
            s.node_failures += 1
            s.fault_events["node_failure"] += 1
        elif kind == "node_up":
            s.node_rejoins += 1
        elif kind == "handover":
            s.handovers += 1
        elif kind == "service_request":
            s.service_requests[f"{event['op']}:{event['outcome']}"] += 1
            s.service_utilisation = event["utilisation"]
        elif kind == "service_backpressure":
            s.service_backpressure += 1
        elif kind == "run_header":
            s.header = event
    return s


def iter_jsonl(path: str | Path) -> Iterable[dict]:
    """Yield one dict per non-empty line of a JSONL file."""
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc


def summarise_log(path: str | Path) -> LogSummary:
    """Replay a JSONL event-log file into a :class:`LogSummary`."""
    return replay_events(iter_jsonl(path))


def format_summary(summary: LogSummary) -> str:
    """Human-readable multi-line rendering (used by ``repro inspect``)."""
    lines = []
    if summary.header is not None:
        h = summary.header
        lines.append(
            f"run: N={h.get('n_nodes')} protocol={h.get('protocol')} "
            f"version={h.get('package_version')}"
        )
    if summary.first_slot is not None:
        lines.append(
            f"slots             : {summary.slots_covered} covered "
            f"({summary.slots_executed} stepped, "
            f"{summary.slots_fast_forwarded} fast-forwarded), "
            f"range [{summary.first_slot}, {summary.last_slot}]"
        )
    lines.append(
        f"messages          : released {summary.released}, "
        f"delivered {summary.delivered}, missed {summary.missed}, "
        f"dropped {summary.dropped}"
    )
    lines.append(f"packets sent      : {summary.packets_sent}")
    lines.append(f"hand-overs        : {summary.handovers}")
    if summary.fault_events:
        lines.append(
            f"fault events      : {sum(summary.fault_events.values())} "
            f"({dict(sorted(summary.fault_events.items()))})"
        )
        lines.append(
            f"recoveries        : {summary.recoveries}; node fail/rejoin "
            f"{summary.node_failures}/{summary.node_rejoins}"
        )
    if summary.service_requests:
        lines.append(
            f"service requests  : {sum(summary.service_requests.values())} "
            f"({dict(sorted(summary.service_requests.items()))})"
        )
        lines.append(
            f"service           : backpressure {summary.service_backpressure}, "
            f"final utilisation {summary.service_utilisation!r}"
        )
    lines.append("events by kind    : " + ", ".join(
        f"{k}={n}" for k, n in sorted(summary.events_by_kind.items())
    ))
    return "\n".join(lines)
