"""Parallel replication must be bit-identical to the serial path.

The contract of :func:`repro.sim.batch.replicate` is strong: same master
seed => byte-for-byte the same :class:`MetricSummary` values, regardless
of how many worker processes (``n_jobs``) evaluated the replications.
The scenario used here is deliberately stochastic end to end -- random
connection set, Poisson best-effort cross-traffic, and a stochastic
fault model -- so any divergence in seeding, merge order, or float
accumulation would show.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priorities import TrafficClass
from repro.sim.batch import (
    AVAILABILITY_METRICS,
    available_cpus,
    ordered_map,
    replicate,
    resolve_jobs,
)
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.traffic.periodic import random_connection_set
from repro.traffic.poisson import PoissonSource
from repro.traffic.sweeps import scale_connections_to_utilisation

N_NODES = 8
N_SLOTS = 1500


def _build_faulty_scenario(rng: np.random.Generator):
    """Module-level builder: picklable into worker processes."""
    conns = random_connection_set(
        rng,
        n_nodes=N_NODES,
        n_connections=8,
        total_utilisation=0.5,
        period_range=(10, 100),
    )
    conns = scale_connections_to_utilisation(conns, 0.5)
    config = ScenarioConfig(
        n_nodes=N_NODES,
        protocol="ccr-edf",
        connections=tuple(conns),
        fault_config=FaultConfig(
            node_mttf_slots=400.0,
            node_mttr_slots=60.0,
            p_collection_loss=0.002,
            p_distribution_loss=0.002,
            seed=int(rng.integers(2**31)),
        ),
    )
    extra = [
        PoissonSource(
            node=1,
            n_nodes=N_NODES,
            rate_per_slot=0.05,
            traffic_class=TrafficClass.BEST_EFFORT,
            relative_deadline_slots=50,
            rng=rng,
        )
    ]
    return build_simulation(config, RunOptions(extra_sources=extra))


METRICS = dict(AVAILABILITY_METRICS)


class TestParallelBitIdentity:
    def test_four_jobs_bit_identical_to_serial(self):
        serial = replicate(
            _build_faulty_scenario,
            n_slots=N_SLOTS,
            metrics=METRICS,
            n_replications=6,
            master_seed=42,
        )
        parallel = replicate(
            _build_faulty_scenario,
            n_slots=N_SLOTS,
            metrics=METRICS,
            n_replications=6,
            master_seed=42,
            n_jobs=4,
        )
        for name in METRICS:
            assert parallel[name].values == serial[name].values, name

    def test_reports_match_in_seed_order(self):
        serial = replicate(
            _build_faulty_scenario,
            n_slots=N_SLOTS,
            metrics=METRICS,
            n_replications=4,
            master_seed=7,
        )
        parallel = replicate(
            _build_faulty_scenario,
            n_slots=N_SLOTS,
            metrics=METRICS,
            n_replications=4,
            master_seed=7,
            n_jobs=2,
        )
        for a, b in zip(serial.reports, parallel.reports):
            assert a.slots_simulated == b.slots_simulated
            assert a.wall_time_s == b.wall_time_s
            assert a.packets_sent == b.packets_sent
            assert a.availability == b.availability
            assert (
                a.availability_stats.fault_events
                == b.availability_stats.fault_events
            )
            for tc in TrafficClass:
                sa, sb = a.class_stats(tc), b.class_stats(tc)
                assert sa.released == sb.released
                assert sa.deadline_missed == sb.deadline_missed
                assert sa.latencies_slots == sb.latencies_slots


class TestParallelValidation:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError, match="at least one replication"):
            replicate(
                _build_faulty_scenario, 10, METRICS, n_replications=0, n_jobs=2
            )

    def test_rejects_empty_metrics(self):
        with pytest.raises(ValueError, match="no metrics"):
            replicate(
                _build_faulty_scenario, 10, {}, n_replications=2, n_jobs=2
            )

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_resolve_jobs_respects_scheduling_affinity(self):
        # <= 0 must size to the CPUs this process may actually run on
        # (sched affinity under taskset/cgroups), not the whole machine.
        import os

        if hasattr(os, "sched_getaffinity"):
            assert resolve_jobs(0) == len(os.sched_getaffinity(0))
            assert resolve_jobs(-5) == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert resolve_jobs(0) >= 1

    def test_available_cpus_never_below_one(self):
        assert available_cpus() >= 1

    def test_ordered_map_keeps_input_order_for_any_job_count(self):
        items = [5, 1, 4, 2, 3]
        for n_jobs in (1, 2, 0):
            assert ordered_map(abs, [-i for i in items], n_jobs) == items
        assert ordered_map(abs, [], 2) == []


class TestRegistryMerge:
    def test_parallel_registry_merge_matches_serial(self):
        serial = replicate(
            _build_faulty_scenario,
            N_SLOTS,
            METRICS,
            n_replications=4,
            master_seed=11,
            n_jobs=1,
        )
        parallel = replicate(
            _build_faulty_scenario,
            N_SLOTS,
            METRICS,
            n_replications=4,
            master_seed=11,
            n_jobs=2,
        )
        # Counters are exact integers; histograms merge additively in
        # seed order on both paths, so the registries are equal.
        assert parallel.registry == serial.registry
        assert parallel.registry.counters["sim:released"] == sum(
            r.total_released for r in serial.reports
        )
