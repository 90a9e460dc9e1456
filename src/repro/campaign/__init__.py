"""Sharded multi-scenario sweep campaigns.

The campaign engine turns a declarative spec -- base scenario, axes of
overrides, replication count -- into a deterministic grid of runs,
executes them across processes with the bit-identical worker machinery
of :mod:`repro.sim.batch`, caches every finished run in a
content-addressed :class:`ResultStore` (interrupt a campaign anywhere;
rerunning skips what is done), and aggregates the store into a
:class:`CampaignReport` whose artifacts do not depend on execution
history.

Typical use::

    campaign = Campaign(
        name="miss-ratio",
        base=ScenarioConfig(n_nodes=8),
        n_slots=20_000,
        axes={"protocol": ("ccr-edf", "tdma"),
              "utilisation": (0.5, 0.7, 0.9)},
        workload=WorkloadSpec(n_connections=12),
        n_replications=5,
    )
    store = ResultStore("results/miss-ratio")
    run_campaign(campaign, store, n_jobs=4)
    CampaignReport.from_store(campaign, store).to_csv("miss_ratio.csv")

or, from the command line, ``repro campaign run --spec spec.json``.
"""

from repro.campaign.executor import (
    ExecutionSummary,
    RunTimeoutError,
    WorkerCrashError,
    backoff_delay,
    execute_run,
    run_campaign,
)
from repro.campaign.grid import GridPoint, RunSpec, expand_grid, expand_runs
from repro.campaign.report import CampaignReport
from repro.campaign.spec import Campaign, RetryPolicy, WorkloadSpec
from repro.campaign.store import (
    FsckReport,
    ResultStore,
    StoreError,
    StoreIntegrityError,
    run_key,
)

__all__ = [
    "Campaign",
    "CampaignReport",
    "ExecutionSummary",
    "FsckReport",
    "GridPoint",
    "ResultStore",
    "RetryPolicy",
    "RunSpec",
    "RunTimeoutError",
    "StoreError",
    "StoreIntegrityError",
    "WorkerCrashError",
    "WorkloadSpec",
    "backoff_delay",
    "execute_run",
    "expand_grid",
    "expand_runs",
    "run_campaign",
    "run_key",
]
