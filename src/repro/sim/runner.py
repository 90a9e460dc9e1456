"""One-call scenario helpers used by examples and benchmarks.

A :class:`ScenarioConfig` names a protocol, a network configuration, and
a workload; :func:`run_scenario` builds the whole stack (topology, timing
model, protocol, sources, simulation) and runs it.  Keeping this in one
place guarantees every experiment compares protocols on byte-identical
networks and workloads.

Run-time attachments (traces, fault models, profilers, observers, ...)
are bundled in a frozen :class:`RunOptions` value instead of a growing
pile of keyword arguments::

    options = RunOptions(with_admission=True, profiler=PhaseProfiler())
    report = run_scenario(config, n_slots=10_000, options=options)

The pre-1.1 keyword form (``run_scenario(config, n, profiler=...)``) and
the positional ``extra_sources`` slot were deprecated in 1.1 and
*removed* in 2.0: both now raise :class:`TypeError` naming the
:class:`RunOptions` replacement.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.baselines.ccfpr import CcFprProtocol
from repro.baselines.tdma import TdmaProtocol
from repro.baselines.upper_edf import make_upper_layer_edf
from repro.core.admission import AdmissionController
from repro.core.arbitration import Arbiter
from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import LaxityMapping
from repro.core.policy import POLICIES, SchedulingPolicy, resolve_policy
from repro.core.protocol import CcrEdfProtocol, MacProtocol
from repro.core.timing import NetworkTiming
from repro.obs.events import EventDispatcher
from repro.phy.constants import (
    DEFAULT_LINK_LENGTH_M,
    DEFAULT_NODE_DELAY_S,
    DEFAULT_SLOT_PAYLOAD_BYTES,
)
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.sim.fault_models import FaultConfig, FaultModel
from repro.sim.metrics import SimulationReport
from repro.sim.profiling import PhaseProfiler
from repro.sim.trace import SlotTrace
from repro.traffic.base import TrafficSource
from repro.traffic.periodic import ConnectionSource

#: Protocol names accepted by :func:`make_protocol`.
PROTOCOLS = ("ccr-edf", "upper-edf", "ccfpr", "tdma")


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, reproducible experiment description."""

    n_nodes: int
    protocol: str = "ccr-edf"
    #: Arbitration policy (see :data:`repro.core.policy.POLICIES`):
    #: ``"edf"`` (the paper's protocol, default), ``"rm"`` or ``"fifo"``.
    #: Part of the scenario -- policies change results -- so it enters
    #: campaign axes, run fingerprints and manifests automatically.
    policy: str = "edf"
    link_length_m: float = DEFAULT_LINK_LENGTH_M
    slot_payload_bytes: int = DEFAULT_SLOT_PAYLOAD_BYTES
    node_delay_s: float = DEFAULT_NODE_DELAY_S
    spatial_reuse: bool = True
    drop_late: bool = False
    initial_master: int = 0
    #: Admitted logical real-time connections (one periodic source each).
    connections: tuple[LogicalRealTimeConnection, ...] = ()
    #: Optional declarative stochastic-fault specification; built into a
    #: :class:`~repro.sim.fault_models.CompositeFaultModel` unless an
    #: explicit ``faults`` argument overrides it.
    fault_config: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )


def make_timing(config: ScenarioConfig) -> NetworkTiming:
    """Build the timing model of a scenario's network.

    Equal network parameters return one shared (immutable) model, so the
    quantities it derives on first use (the slot length, Eq. 2) are
    computed once per network, not once per run.
    """
    return _timing(
        config.n_nodes,
        config.link_length_m,
        config.slot_payload_bytes,
        config.node_delay_s,
    )


# typed, like RingTopology.uniform: 10 and 10.0 are different arguments.
@lru_cache(maxsize=16, typed=True)
def _timing(
    n_nodes: int, link_length_m: float, slot_payload_bytes: int, node_delay_s: float
) -> NetworkTiming:
    return NetworkTiming(
        topology=RingTopology.uniform(n_nodes, link_length_m),
        link=FibreRibbonLink(),
        slot_payload_bytes=slot_payload_bytes,
        node_delay_s=node_delay_s,
    )


def make_protocol(
    config: ScenarioConfig,
    topology: RingTopology,
    mapping: LaxityMapping | None = None,
    policy: "SchedulingPolicy | str | None" = None,
) -> MacProtocol:
    """Instantiate the scenario's MAC protocol.

    ``policy`` overrides :attr:`ScenarioConfig.policy` (mirroring how
    ``mapping`` overrides the default laxity map); policies plug into
    the TCMA arbitration protocols only -- the fixed-priority baselines
    (CC-FPR, TDMA) have no priority field to encode into, so a
    non-default policy on them is an error rather than a silent no-op.
    """
    resolved = resolve_policy(policy if policy is not None else config.policy)
    if config.protocol == "ccr-edf":
        return CcrEdfProtocol(
            topology=topology,
            mapping=mapping,
            arbiter=Arbiter(spatial_reuse=config.spatial_reuse),
            policy=resolved,
        )
    if config.protocol == "upper-edf":
        return make_upper_layer_edf(
            topology,
            mapping=mapping,
            spatial_reuse=config.spatial_reuse,
            policy=resolved,
        )
    if resolved.name != "edf":
        raise ValueError(
            f"policy {resolved.name!r} requires a TCMA arbitration protocol "
            f"(ccr-edf or upper-edf); {config.protocol!r} has no priority "
            "field to encode it into"
        )
    if config.protocol == "ccfpr":
        return CcFprProtocol(topology, spatial_reuse=config.spatial_reuse)
    if config.protocol == "tdma":
        return TdmaProtocol(topology)
    raise ValueError(f"unknown protocol {config.protocol!r}")


@dataclass(frozen=True)
class RunOptions:
    """Run-time attachments for building a :class:`Simulation`.

    A :class:`ScenarioConfig` describes *what* is simulated (network,
    protocol, workload); ``RunOptions`` describes *how* one particular
    run is instrumented and driven.  The split keeps the scenario
    hashable/serialisable for provenance while instruments (profilers,
    observers, traces) stay live objects.
    """

    #: Additional traffic sources beyond the scenario's connections.
    extra_sources: tuple[TrafficSource, ...] = ()
    #: Non-default laxity-to-priority mapping (mapping-ablation studies).
    mapping: LaxityMapping | None = None
    #: Scheduling-policy override: a registry name (``"edf"``, ``"rm"``,
    #: ``"fifo"``) or a :class:`~repro.core.policy.SchedulingPolicy`
    #: instance; ``None`` follows :attr:`ScenarioConfig.policy`.  Unlike
    #: :attr:`engine`, the policy *does* change results -- campaigns
    #: carry it on the scenario so it lands in run fingerprints.
    policy: "SchedulingPolicy | str | None" = None
    #: In-memory per-slot trace (disables the fast-forward).
    trace: SlotTrace | None = None
    #: Fault source overriding :attr:`ScenarioConfig.fault_config`.
    faults: "FaultModel | None" = None
    #: Per-packet loss model (reliable-transmission service).
    loss_model: object | None = None
    #: Create an admission controller and admission-test the scenario's
    #: connections into it before the run.
    with_admission: bool = False
    #: Skip exactly-repeating idle and busy slots (bit-identical results).
    fast_forward: bool = True
    #: Slot-loop phase profiler.
    profiler: "PhaseProfiler | None" = None
    #: Event dispatcher attached to the whole stack.
    observer: EventDispatcher | None = None
    #: Engine core: ``"python"`` (the reference oracle), ``"vector"``
    #: (the vector kernels, bit-identical, with automatic
    #: oracle fallback), or ``None`` to follow the ``REPRO_ENGINE``
    #: environment variable (default ``"python"``).  Engine choice never
    #: affects results, so it stays out of campaign run keys.
    engine: str | None = None

    def __post_init__(self) -> None:
        # Accept any iterable of sources; store a tuple so the options
        # value is immutable and safely shareable across runs.
        object.__setattr__(
            self, "extra_sources", tuple(self.extra_sources)
        )

    def replace(self, **changes) -> "RunOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


#: Available engine cores (see :attr:`RunOptions.engine`).
ENGINES: tuple[str, ...] = ("python", "vector")


def resolve_engine(engine: str | None) -> str:
    """Resolve an engine choice to a concrete core name.

    ``None`` defers to the ``REPRO_ENGINE`` environment variable (used
    by CI to matrix the whole test pyramid over the vector core) and
    falls back to ``"python"``.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or "python"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def _check_options(options: "RunOptions | None", caller: str) -> RunOptions:
    """Validate the ``options`` argument, rejecting pre-1.1 call forms.

    The 1.1 deprecation shims (bare source sequences in the old
    ``extra_sources`` positional slot, loose ``profiler=...``-style
    keywords) were removed in 2.0; a stale call site gets a
    :class:`TypeError` that names the :class:`RunOptions` replacement
    instead of a silently-different behaviour.
    """
    if options is None:
        return RunOptions()
    if not isinstance(options, RunOptions):
        raise TypeError(
            f"{caller}() no longer accepts a bare source sequence in the "
            "options slot (removed in 2.0); pass "
            "options=RunOptions(extra_sources=...)"
        )
    return options


def build_simulation(
    config: ScenarioConfig,
    options: RunOptions | None = None,
) -> Simulation:
    """Assemble a ready-to-run simulation for a scenario.

    ``options`` bundles every run-time attachment (see
    :class:`RunOptions`).  :attr:`RunOptions.faults` accepts any
    :class:`~repro.sim.fault_models.FaultModel`; when omitted and the
    scenario carries a :attr:`ScenarioConfig.fault_config`, that
    configuration is built (seeded from its own fault seed).  With
    :attr:`RunOptions.with_admission` an :class:`AdmissionController` is
    created, the scenario's connections are admission-tested into it,
    and the engine suspends/re-admits them across node failures and
    rejoins.  :attr:`RunOptions.observer` attaches an
    :class:`~repro.obs.events.EventDispatcher` (e.g. carrying a JSONL
    event-log sink) to the whole stack.

    The pre-1.1 keyword form (``build_simulation(config, trace=...)``)
    was removed in 2.0 and raises :class:`TypeError`.
    """
    opts = _check_options(options, "build_simulation")
    timing = make_timing(config)
    protocol = make_protocol(config, timing.topology, opts.mapping, opts.policy)
    sources: list[TrafficSource] = [
        ConnectionSource(c) for c in config.connections
    ]
    sources.extend(opts.extra_sources)
    faults = opts.faults
    if faults is None and config.fault_config is not None:
        faults = config.fault_config.build(config.n_nodes)
    admission = None
    if opts.with_admission:
        admission = AdmissionController(timing)
        # Attach the observer before the initial admission pass so the
        # pre-run decisions (slot=None) land in the event log too.
        if opts.observer is not None:
            admission.observer = opts.observer
        for conn in config.connections:
            admission.request(conn)
    if resolve_engine(opts.engine) == "vector":
        from repro.sim.vector import VectorSimulation

        sim_cls: type[Simulation] = VectorSimulation
    else:
        sim_cls = Simulation
    return sim_cls(
        timing=timing,
        protocol=protocol,
        sources=sources,
        initial_master=config.initial_master,
        drop_late=config.drop_late,
        trace=opts.trace,
        faults=faults,
        loss_model=opts.loss_model,
        admission=admission,
        fast_forward=opts.fast_forward,
        profiler=opts.profiler,
        observer=opts.observer,
    )


def run_scenario(
    config: ScenarioConfig,
    n_slots: int,
    options: RunOptions | None = None,
) -> SimulationReport:
    """Build and run a scenario for ``n_slots`` slots.

    Accepts the same strict ``options`` form as :func:`build_simulation`
    (the pre-1.1 keyword shims raise :class:`TypeError` since 2.0).
    """
    opts = _check_options(options, "run_scenario")
    sim = build_simulation(config, opts)
    return sim.run(n_slots)
