"""Vectorized engine core: a batched slot kernel in two tiers.

An opt-in replacement for the pure-Python slot loop, selected with
``RunOptions(engine="vector")``, CLI ``--engine vector``, or the
``REPRO_ENGINE`` environment variable.  The pure-Python
:class:`~repro.sim.engine.Simulation` remains the reference oracle; the
vector engine is required to produce bit-identical reports, metric
registries and event streams, and silently falls back to the oracle for
configurations it cannot replicate exactly (see
:class:`~repro.sim.vector.engine.VectorSimulation`).

* :mod:`repro.sim.vector.soa` -- the packed priority-field layout;
* :mod:`repro.sim.vector.ckernel` -- the compiled C micro-kernel;
* :mod:`repro.sim.vector.kernel` -- the event-driven batched Python
  kernel that runs whatever the compiled tier declines;
* :mod:`repro.sim.vector.engine` -- engine selection and oracle fallback.
"""

from repro.sim.vector.engine import VectorSimulation
from repro.sim.vector.soa import (
    PACKED_MAX,
    PACKED_NODE_BITS,
    PACKED_NODE_MASK,
    PACKED_PRIO_SHIFT,
)

__all__ = [
    "VectorSimulation",
    "PACKED_MAX",
    "PACKED_NODE_BITS",
    "PACKED_NODE_MASK",
    "PACKED_PRIO_SHIFT",
]
