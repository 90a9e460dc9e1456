"""Streaming observability: typed events, sinks, manifests, registries.

The measurement harness is this repository's product (the paper promises a
simulation study it never published), so runs must be *auditable*:

* :mod:`repro.obs.events` -- typed events (slot executed, hand-over, fault
  injected, recovery, node fail/rejoin, admission decision, fast-forward
  span) dispatched from the engine to pluggable sinks: a JSONL-to-disk log
  and a bounded in-memory ring.  The legacy
  :class:`~repro.sim.trace.SlotTrace` subscribes to the same dispatch, so
  tracing-to-disk no longer forces every slot into memory;
* :mod:`repro.obs.manifest` -- a :class:`RunManifest` written alongside
  reports/CSVs: scenario config, seeds, package version, git revision,
  host, wall time and the phase-profiler table, making every published
  number reproducible from its artifact;
* :mod:`repro.obs.registry` -- a unified counter/histogram registry
  backing :class:`~repro.sim.profiling.PhaseProfiler` and, derived from
  a finished report by :func:`~repro.sim.metrics.registry_of`, a run's
  ``sim:*`` totals, merged across replications in deterministic seed
  order;
* :mod:`repro.obs.replay` -- reconstructs run totals from an event log,
  proving the log is a faithful record of the run.

Everything here is off by default and costs nothing when off: the engine
guards every emission behind a single ``observer is None`` check.
"""

from repro.obs.events import (
    AdmissionDecided,
    BoundedEventRing,
    EventDispatcher,
    EventSink,
    FastForwardSpan,
    FaultInjected,
    HandoverOccurred,
    JsonlEventLog,
    NodeFailed,
    NodeRejoined,
    RecoveryPerformed,
    RunHeader,
    ServiceBackpressureApplied,
    ServiceRequestServed,
    SlotExecuted,
)
from repro.obs.manifest import RunManifest
from repro.obs.registry import Histogram, MetricRegistry
from repro.obs.replay import LogSummary, replay_events, summarise_log

__all__ = [
    "AdmissionDecided",
    "BoundedEventRing",
    "EventDispatcher",
    "EventSink",
    "FastForwardSpan",
    "FaultInjected",
    "HandoverOccurred",
    "Histogram",
    "JsonlEventLog",
    "LogSummary",
    "MetricRegistry",
    "NodeFailed",
    "NodeRejoined",
    "RecoveryPerformed",
    "RunHeader",
    "RunManifest",
    "ServiceBackpressureApplied",
    "ServiceRequestServed",
    "SlotExecuted",
    "replay_events",
    "summarise_log",
]
