"""Vectorized engine core: struct-of-arrays state + batched slot kernel.

An opt-in replacement for the pure-Python slot loop, selected with
``RunOptions(engine="vector")``, CLI ``--engine vector``, or the
``REPRO_ENGINE`` environment variable.  The pure-Python
:class:`~repro.sim.engine.Simulation` remains the reference oracle; the
vector engine is required to produce bit-identical reports, metric
registries and event streams, and silently falls back to the oracle for
configurations it cannot replicate exactly (see
:class:`~repro.sim.vector.engine.VectorSimulation`).

* :mod:`repro.sim.vector.soa` -- packed priority-field layout and the
  per-node arrays;
* :mod:`repro.sim.vector.kernel` -- the event-driven batched kernel;
* :mod:`repro.sim.vector.engine` -- engine selection and oracle fallback.
"""

from repro.sim.vector.engine import VectorSimulation
from repro.sim.vector.soa import (
    PACKED_MAX,
    PACKED_NODE_BITS,
    PACKED_NODE_MASK,
    PACKED_PRIO_SHIFT,
    SoAState,
    arbitration_order,
)

__all__ = [
    "VectorSimulation",
    "SoAState",
    "arbitration_order",
    "PACKED_MAX",
    "PACKED_NODE_BITS",
    "PACKED_NODE_MASK",
    "PACKED_PRIO_SHIFT",
]
