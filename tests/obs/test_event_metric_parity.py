"""Every counter a run publishes maps onto the event taxonomy.

``repro.obs.replay`` reconstructs published totals from the event log,
so a counter with no event type is a number replay can never check.  A
name maps when one of its ``:``-separated segments is an event ``kind``,
its last segment is a field of an event dataclass, or it is in
:data:`PARITY_ALLOWLIST`.  The names checked are the ones that really
occur: ``registry_of`` of a faulty overloaded run, a churn storm's
service registry, and the declared campaign and service counters.
"""

import asyncio
import dataclasses

import numpy as np

from repro.obs import events
from repro.obs.registry import CAMPAIGN_COUNTERS, SERVICE_COUNTERS
from repro.service import AdmissionClient, AdmissionService, ChurnDriver
from repro.sim.fault_models import FaultConfig
from repro.sim.metrics import registry_of
from repro.sim.runner import RunOptions, ScenarioConfig, run_scenario
from repro.traffic.periodic import random_connection_set

#: Names with no event type, and why that is deliberate.
PARITY_ALLOWLIST = {
    "sim:latency_slots": (
        "per-delivery latency histogram; the slot event carries the "
        "delivered count and replay sums it, the distribution is "
        "registry-only by design"
    ),
    "sim:deadline_missed": (
        "run total of the slot event's per-slot 'missed' delta (replay "
        "reconstructs it by summation)"
    ),
    "sim:recoveries": "count of the 'recovery' events",
}


def unmapped(names):
    """The names that match no event kind, event field or allowlist entry."""
    classes = [
        cls
        for cls in vars(events).values()
        if dataclasses.is_dataclass(cls) and getattr(cls, "kind", "")
    ]
    kinds = {cls.kind for cls in classes}
    fields = {f.name for cls in classes for f in dataclasses.fields(cls)}
    return sorted(
        name
        for name in names
        if name not in PARITY_ALLOWLIST
        and not kinds.intersection(name.split(":"))
        and name.split(":")[-1] not in fields
    )


def published_names():
    """Counter and histogram names of a faulty run and a churn storm."""
    rng = np.random.default_rng(5)
    report = run_scenario(
        ScenarioConfig(
            n_nodes=8,
            connections=tuple(random_connection_set(rng, 8, 12, 1.3)),
            drop_late=True,
            fault_config=FaultConfig(
                node_mttf_slots=1500.0,
                node_mttr_slots=100.0,
                p_collection_loss=0.01,
                p_distribution_loss=0.01,
                p_clock_glitch=0.005,
                seed=3,
            ),
        ),
        6000,
        RunOptions(),
    )

    async def storm():
        async with AdmissionService(ScenarioConfig(n_nodes=8)) as service:
            driver = ChurnDriver(
                AdmissionClient(service), seed=1, n_nodes=8, fault_every=2
            )
            await driver.run(6)
        return service.registry

    names = set(SERVICE_COUNTERS) | set(CAMPAIGN_COUNTERS)
    for registry in (registry_of(report), asyncio.run(storm())):
        names |= set(registry.counters) | set(registry.histograms)
    return names


def test_quiet_when_names_map_to_taxonomy():
    names = published_names()
    assert {
        "sim:dropped",
        "sim:recoveries",
        "sim:fault:node_failure",
        "sim:latency_slots",
        "service:service_request",
        "service:latency_s",
    } <= names
    assert unmapped(names) == []


def test_fires_on_unmapped_names():
    assert unmapped({"sim:bogus_total", "sim:fault:bogus", "sim:rec"}) == [
        "sim:bogus_total",
        "sim:rec",
    ]
