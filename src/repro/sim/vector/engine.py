"""Opt-in vectorized engine with automatic oracle fallback.

:class:`VectorSimulation` is a drop-in :class:`~repro.sim.engine.Simulation`
whose :meth:`run` dispatches to the struct-of-arrays kernel
(:mod:`repro.sim.vector.kernel`) whenever the configuration is one the
kernel replicates bit-for-bit, and otherwise falls back to the inherited
pure-Python slot loop -- the reference oracle.  Only :meth:`run` is
overridden: ``step()`` and ``run_until()`` are always the oracle, since
single-slot stepping has nothing to batch and a signalling wait must stop
in the slot its message is delivered.

The fallback decision is recorded in :attr:`vector_fallback_reason` so
callers (and the differential harness) can assert which core actually
ran.  Configurations that force the oracle today:

* a protocol other than exactly :class:`CcrEdfProtocol`, or a custom
  arbiter / non-EDF hand-over subclass (the kernel inlines their exact
  semantics and cannot inline an override);
* a scheduling policy other than EDF (the kernel's request-composition
  path hard-codes the laxity mapping; alternative policies run on the
  oracle and record the reason string ``"policy"``);
* wire-level packet tracing (``trace_packets``) and slot traces
  (``observer.blocks_fast_forward``) -- both want the full per-slot
  object graph;
* fault injection and packet-loss models -- the recovery state machine
  is scalar control flow with no batch structure to exploit;
* rings wider than the packed node field.

Everything else -- any laxity mapping, admission control, drop-late,
event sinks, profilers, arbitrary traffic sources -- runs in-kernel.
A profiler does not change the tier: the compiled kernel records one
``ingest`` / ``kernel`` / ``fold`` lap per call and counts its windows
(message-table compactions plus one) in ``compiled_windows``, the SoA
kernel one ``kernel`` lap per call.
"""

from __future__ import annotations

from repro.core.arbitration import Arbiter
from repro.core.clocking import EdfHandover
from repro.core.policy import EdfPolicy
from repro.core.protocol import CcrEdfProtocol
from repro.sim.engine import Simulation
from repro.sim.metrics import SimulationReport
from repro.sim.vector.ckernel import try_run as _try_compiled
from repro.sim.vector.kernel import run_kernel
from repro.sim.vector.soa import PACKED_NODE_MASK


class VectorSimulation(Simulation):
    """``Simulation`` that runs eligible configurations on the vector kernel."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: Why the last ``run()`` used the oracle instead of the kernel;
        #: ``None`` when the kernel ran (or ``run()`` was never called).
        self.vector_fallback_reason: str | None = None
        #: Total slots executed by the vector kernel (not the oracle).
        self.vector_slots: int = 0
        #: Which vector core executed the last kernel ``run()``:
        #: ``"compiled"`` (the C micro-kernel), ``"python"`` (the SoA
        #: kernel), or ``None`` (oracle fallback / never ran).
        self.vector_backend: str | None = None
        #: Why the compiled tier refused the last kernel ``run()``, which
        #: then ran on the SoA kernel; ``None`` unless ``vector_backend``
        #: is ``"python"``.
        self.vector_numpy_reason: str | None = None

    def _fallback_reason(self) -> str | None:
        """Reason the kernel must not run, or ``None`` if it may."""
        protocol = self.protocol
        if type(protocol) is not CcrEdfProtocol:
            return f"protocol {type(protocol).__name__} is not CcrEdfProtocol"
        if not protocol._edf_handover or type(protocol.handover) is not EdfHandover:
            return "non-EDF clock hand-over"
        if type(protocol.policy) is not EdfPolicy:
            return "policy"
        if type(protocol.arbiter) is not Arbiter:
            return f"custom arbiter {type(protocol.arbiter).__name__}"
        if protocol.trace_packets:
            return "wire-level packet tracing"
        if self.faults is not None:
            return "fault injection active"
        if self.loss_model is not None:
            return "packet-loss model active"
        observer = self.observer
        if observer is not None and observer.blocks_fast_forward:
            return "slot traces attached"
        if self.topology.n_nodes > PACKED_NODE_MASK:
            return "ring wider than the packed node field"
        return None

    def run(self, n_slots: int) -> SimulationReport:
        """Execute ``n_slots`` slots; kernel when eligible, oracle otherwise."""
        if n_slots < 0:
            raise ValueError(f"slot count must be non-negative, got {n_slots}")
        if n_slots == 0:
            # Nothing ran: keep the tier of the last real run on record.
            return self.report
        reason = self._fallback_reason()
        self.vector_fallback_reason = reason
        if reason is not None:
            self.vector_backend = None
            self.vector_numpy_reason = None
            return super().run(n_slots)
        # Closed-world configurations run on the compiled micro-kernel
        # (which times its own ingest / kernel / fold laps); anything it
        # cannot replicate bit-for-bit lands on the pure-Python SoA
        # kernel below, with the refusal on record.
        refusal = _try_compiled(self, n_slots)
        self.vector_numpy_reason = refusal
        if refusal is None:
            self.vector_backend = "compiled"
        else:
            profiler = self.profiler
            if profiler is not None:
                t_phase = profiler.clock()
            run_kernel(self, n_slots)
            if profiler is not None:
                profiler.lap("kernel", t_phase)
            self.vector_backend = "python"
        self.vector_slots += n_slots
        return self.report
