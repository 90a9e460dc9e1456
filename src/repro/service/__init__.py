"""Live asyncio admission-control service (the ROADMAP's open item #1).

The paper's Section 6 designates one node to serve all connection
set-up/tear-down; this package stands that up as a long-running service
over a hosted simulated ring:

* :mod:`repro.service.server` -- :class:`AdmissionService`: the bounded
  request queue, the single worker coroutine that *is* the designated
  admission node, typed backpressure, and per-decision event emission;
* :mod:`repro.service.client` -- :class:`AdmissionClient`: the canonical
  async verbs (``open_lrtc``/``close_lrtc``/``status`` plus the
  ``suspend_node``/``resume_node`` fault pair), shared spelling with the
  synchronous :class:`~repro.services.api.ConnectionClient`;
* :mod:`repro.service.messages` -- the request/reply/rejection value
  types;
* :mod:`repro.service.churn` -- the seeded arrival/departure/fault storm
  driver behind ``repro churn``.

Every decision streams through :mod:`repro.obs`, so replaying a service
event log reproduces the live totals bit-identically -- see
docs/SERVICE.md for the API, backpressure semantics and the replay
guarantee.
"""

from repro.service.churn import ChurnDriver, ChurnStats
from repro.service.client import AdmissionClient
from repro.service.messages import (
    OPS,
    ServiceBackpressure,
    ServiceClosed,
    ServiceFailed,
    ServiceReply,
    ServiceRequest,
    ServiceStatus,
)
from repro.service.server import AdmissionService

__all__ = [
    "OPS",
    "AdmissionClient",
    "AdmissionService",
    "ChurnDriver",
    "ChurnStats",
    "ServiceBackpressure",
    "ServiceClosed",
    "ServiceFailed",
    "ServiceReply",
    "ServiceRequest",
    "ServiceStatus",
]
