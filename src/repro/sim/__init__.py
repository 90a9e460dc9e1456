"""Slot-level discrete-event simulator of the CCR-EDF ring.

The protocol is globally synchronous per slot, so the engine advances one
slot at a time and accumulates continuous wall-clock time from slot
durations plus the variable inter-slot clock hand-over gaps -- the
quantity that makes utilisation strictly less than 1 (Equation 6).

* :mod:`repro.sim.engine` -- the :class:`Simulation` slot loop;
* :mod:`repro.sim.metrics` -- per-message and per-slot accounting and the
  :class:`SimulationReport` aggregate;
* :mod:`repro.sim.fault_models` -- composable fault sources (scripted
  node-failure and control-loss injection as sketched in the paper's
  future work, Bernoulli and Gilbert-Elliott control-channel loss,
  transient node faults with rejoin, clock glitches) plus the
  bounded-backoff :class:`~repro.sim.fault_models.RecoveryPolicy` of the
  timeout/designated-node recovery;
* :mod:`repro.sim.trace` -- optional per-slot event trace and wire-format
  verification;
* :mod:`repro.sim.runner` -- one-call scenario helpers used by examples
  and benchmarks.
"""

from repro.sim.engine import RecoveryState, Simulation
from repro.sim.metrics import (
    AvailabilityStats,
    ClassStats,
    ConnectionStats,
    MetricsCollector,
    SimulationReport,
)
from repro.sim.fault_models import (
    BernoulliControlLoss,
    ClockGlitchFaults,
    CompositeFaultModel,
    FaultConfig,
    FaultModel,
    GilbertElliottControlLoss,
    RecoveryPolicy,
    ScriptedFaultModel,
    ScriptedNodeOutages,
    TransientNodeFaults,
)
from repro.sim.trace import SlotTrace, TraceRecord
from repro.sim.batch import (
    AVAILABILITY_METRICS,
    BatchResult,
    MetricSummary,
    replicate,
    resolve_jobs,
)
from repro.sim.control_channel import ControlChannelTimeline, compute_timeline, verify_all_masters
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, run_scenario

__all__ = [
    "Simulation",
    "RecoveryState",
    "AvailabilityStats",
    "ClassStats",
    "ConnectionStats",
    "MetricsCollector",
    "SimulationReport",
    "FaultModel",
    "FaultConfig",
    "RecoveryPolicy",
    "ScriptedFaultModel",
    "ScriptedNodeOutages",
    "BernoulliControlLoss",
    "GilbertElliottControlLoss",
    "TransientNodeFaults",
    "ClockGlitchFaults",
    "CompositeFaultModel",
    "SlotTrace",
    "TraceRecord",
    "AVAILABILITY_METRICS",
    "BatchResult",
    "MetricSummary",
    "replicate",
    "resolve_jobs",
    "PhaseProfiler",
    "ControlChannelTimeline",
    "compute_timeline",
    "verify_all_masters",
    "RunOptions",
    "ScenarioConfig",
    "run_scenario",
]
