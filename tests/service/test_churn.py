"""Tests for the churn driver: storms, faults, determinism."""

import asyncio

import pytest

from repro.service import AdmissionClient, AdmissionService, ChurnDriver, ChurnStats
from repro.sim.runner import ScenarioConfig


def config(n=8):
    return ScenarioConfig(n_nodes=n)


def run_driver(seed=7, cycles=24, fault_every=0, **knobs):
    """One driver against a fresh service; returns (stats, service)."""

    async def scenario():
        async with AdmissionService(config()) as service:
            driver = ChurnDriver(
                AdmissionClient(service),
                seed=seed,
                n_nodes=8,
                fault_every=fault_every,
                **knobs,
            )
            stats = await driver.run(cycles)
            return stats, service.request_totals.copy(), service.summary()

    return asyncio.run(scenario())


class TestChurnStorm:
    def test_bounded_cycles_produce_bounded_operations(self):
        stats, totals, _ = run_driver(cycles=24, burst=3)
        assert 24 <= stats.operations <= 24 * 3
        assert stats.opens == stats.open_accepted + stats.open_rejected
        assert stats.operations == sum(totals.values()) + stats.backpressure

    def test_closes_only_target_own_open_pool(self):
        stats, totals, _ = run_driver(cycles=40, close_fraction=0.7)
        # Every close targeted a connection this driver had opened, so
        # none can error (close works on admitted and suspended alike).
        assert stats.closes > 0
        assert stats.errors == 0
        assert totals.get("close:error", 0) == 0
        # The pool balance holds: accepted opens = closes + still open.
        assert stats.open_accepted == stats.closes + len(stats.still_open)

    def test_fault_cycles_drive_suspend_and_resume(self):
        stats, totals, _ = run_driver(cycles=30, fault_every=3)
        assert stats.suspends >= 3
        assert stats.resumes >= 3
        # Suspends and resumes alternate, so they differ by at most one.
        assert stats.suspends - stats.resumes in (0, 1)
        assert totals["suspend:accepted"] == stats.suspends
        # Fault-triggered re-admission went through the service API.
        resumed = totals.get("resume:accepted", 0) + totals.get(
            "resume:rejected", 0
        )
        assert resumed == stats.resumes

    def test_same_seed_same_storm(self):
        first, first_totals, _ = run_driver(seed=11, cycles=20, fault_every=4)
        second, second_totals, _ = run_driver(seed=11, cycles=20, fault_every=4)
        assert first.as_dict() == second.as_dict()
        assert first_totals == second_totals

    def test_different_seeds_diverge(self):
        first, _, _ = run_driver(seed=1, cycles=20)
        second, _, _ = run_driver(seed=2, cycles=20)
        assert first.as_dict() != second.as_dict()

    def test_run_until_ops_reaches_target(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                driver = ChurnDriver(
                    AdmissionClient(service), seed=5, n_nodes=8
                )
                stats = await driver.run_until_ops(100, cycle_chunk=4)
                return stats

        stats = asyncio.run(scenario())
        assert stats.operations >= 100

    def test_fault_counter_persists_across_run_calls(self):
        """run() is resumable: fault_every counts cycles across calls,
        not per call, so chunked runs fault at the same points as one
        long run with the same seed."""

        async def chunked():
            async with AdmissionService(config()) as service:
                driver = ChurnDriver(
                    AdmissionClient(service), seed=3, n_nodes=8, fault_every=5
                )
                for _ in range(4):
                    await driver.run(5)
                return driver.stats

        async def single():
            async with AdmissionService(config()) as service:
                driver = ChurnDriver(
                    AdmissionClient(service), seed=3, n_nodes=8, fault_every=5
                )
                return await driver.run(20)

        assert asyncio.run(chunked()).as_dict() == asyncio.run(single()).as_dict()


class TestDriverArguments:
    """A driver rejects knobs outside their domain when it is built,
    before any storm runs."""

    def driver(self, **knobs):
        service = AdmissionService(config())
        return ChurnDriver(AdmissionClient(service), seed=0, n_nodes=8, **knobs)

    def test_burst_below_one_rejected(self):
        with pytest.raises(ValueError, match="burst must be >= 1, got 0"):
            self.driver(burst=0)

    def test_close_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="close_fraction must be in"):
            self.driver(close_fraction=3.0)

    def test_negative_fault_every_rejected(self):
        with pytest.raises(ValueError, match="fault_every must be >= 0"):
            self.driver(fault_every=-1)


class TestChurnStats:
    def test_merge_adds_counts(self):
        a = ChurnStats(opens=3, open_accepted=2, open_rejected=1, closes=1)
        b = ChurnStats(opens=2, open_accepted=2, backpressure=4, still_open=(9,))
        a.merge(b)
        assert a.opens == 5
        assert a.open_accepted == 4
        assert a.backpressure == 4
        assert a.still_open == (9,)
        assert a.operations == 5 + 1 + 4

    def test_as_dict_is_manifest_ready(self):
        stats = ChurnStats(opens=2, open_accepted=2, still_open=(1, 2))
        d = stats.as_dict()
        assert d["opens"] == 2
        assert d["still_open"] == 2  # reduced to a size
        assert d["operations"] == stats.operations


class TestMultiClient:
    def test_shared_service_with_derived_seeds(self):
        """Several drivers on one service (the `repro churn` shape):
        merged stats match the service's own totals."""

        async def scenario():
            async with AdmissionService(config()) as service:
                drivers = [
                    ChurnDriver(
                        AdmissionClient(service), seed=100 + i, n_nodes=8
                    )
                    for i in range(3)
                ]
                all_stats = await asyncio.gather(
                    *(d.run(12) for d in drivers)
                )
                merged = ChurnStats()
                for s in all_stats:
                    merged.merge(s)
                return merged, service.request_totals.copy(), service

        merged, totals, service = asyncio.run(scenario())
        assert merged.operations == sum(totals.values()) + merged.backpressure
        assert merged.backpressure == service.backpressure_total
