"""Campaign execution: sharding, caching, interrupts, and resume.

The load-bearing property throughout: the aggregated
:class:`CampaignReport` is a pure function of the campaign spec -- the
same bytes whether the runs were computed serially, in parallel worker
processes, or across several interrupted invocations served partly from
cache.
"""

import pytest

from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    WorkloadSpec,
    run_campaign,
)
from repro.sim.runner import ScenarioConfig


def _campaign(**overrides):
    kwargs = dict(
        name="t",
        base=ScenarioConfig(n_nodes=6),
        n_slots=500,
        axes={"protocol": ("ccr-edf", "tdma"), "utilisation": (0.4, 0.8)},
        workload=WorkloadSpec(n_connections=4),
        n_replications=2,
        master_seed=5,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


def _report_bytes(campaign, store, path):
    CampaignReport.from_store(campaign, store).to_csv(path)
    return path.read_bytes()


class TestExecution:
    def test_serial_run_completes(self, tmp_path):
        c = _campaign()
        summary = run_campaign(c, ResultStore(tmp_path), n_jobs=1)
        assert summary.total == summary.executed == c.total_runs
        assert summary.skipped == 0 and summary.complete

    def test_clean_run_reports_no_faults(self, tmp_path):
        summary = run_campaign(_campaign(), ResultStore(tmp_path))
        assert summary.failed_attempts == 0
        assert summary.quarantined == 0
        assert summary.corrupt_replaced == 0
        assert summary.pool_rebuilds == 0
        assert not summary.interrupted
        assert not summary.registry.counters

    def test_second_run_serves_everything_from_cache(self, tmp_path):
        c = _campaign()
        store = ResultStore(tmp_path)
        run_campaign(c, store)
        summary = run_campaign(c, store)
        assert summary.executed == 0
        assert summary.skipped == c.total_runs

    def test_parallel_rows_bit_identical_to_serial(self, tmp_path):
        c = _campaign()
        serial = ResultStore(tmp_path / "serial")
        sharded = ResultStore(tmp_path / "sharded")
        run_campaign(c, serial, n_jobs=1)
        run_campaign(c, sharded, n_jobs=3)
        assert _report_bytes(c, serial, tmp_path / "a.csv") == _report_bytes(
            c, sharded, tmp_path / "b.csv"
        )

    def test_rows_carry_identity_axes_and_metrics(self, tmp_path):
        c = _campaign()
        store = ResultStore(tmp_path)
        run_campaign(c, store)
        report = CampaignReport.from_store(c, store)
        row = report.rows[0]
        assert row["point"] == 0 and row["replication"] == 0
        assert row["seed"] == [5, 0, 0]
        assert row["protocol"] == "ccr-edf"
        # The utilisation axis collides with the achieved-utilisation
        # report field and lands in target_utilisation instead.
        assert row["target_utilisation"] == 0.4
        assert row["slots_simulated"] == 500


class TestInterruptAndResume:
    def test_limit_interrupt_then_resume_bit_identical(self, tmp_path):
        """Kill a campaign mid-grid (via --limit), rerun, and the final
        report must be byte-identical to an uninterrupted campaign."""
        c = _campaign()

        uninterrupted = ResultStore(tmp_path / "clean")
        run_campaign(c, uninterrupted, n_jobs=1)

        interrupted = ResultStore(tmp_path / "resumed")
        first = run_campaign(c, interrupted, n_jobs=2, limit=3)
        assert first.executed == 3 and first.remaining == c.total_runs - 3
        assert not first.complete
        partial = CampaignReport.from_store(c, interrupted)
        assert not partial.complete
        assert len(partial.missing) == c.total_runs - 3

        second = run_campaign(c, interrupted, n_jobs=1)
        assert second.skipped == 3
        assert second.executed == c.total_runs - 3
        assert second.complete

        assert _report_bytes(
            c, uninterrupted, tmp_path / "clean.csv"
        ) == _report_bytes(c, interrupted, tmp_path / "resumed.csv")

    def test_crash_mid_grid_then_resume_bit_identical(self, tmp_path):
        """A hard failure partway through (the process dying mid-campaign)
        loses only unfinished runs: completed ones were persisted as they
        landed, and the rerun picks up from exactly there."""
        c = _campaign()

        class CrashingStore(ResultStore):
            saves = 0

            def save(self, key, row):
                if CrashingStore.saves == 4:
                    raise KeyboardInterrupt  # the "kill" arrives here
                CrashingStore.saves += 1
                return super().save(key, row)

        with pytest.raises(KeyboardInterrupt):
            run_campaign(c, CrashingStore(tmp_path / "crashed"), n_jobs=1)

        store = ResultStore(tmp_path / "crashed")
        assert len(store) == 4
        summary = run_campaign(c, store, n_jobs=1)
        assert summary.skipped == 4
        assert summary.complete

        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean, n_jobs=1)
        assert _report_bytes(
            c, clean, tmp_path / "clean.csv"
        ) == _report_bytes(c, store, tmp_path / "crashed.csv")

    def test_limit_zero_executes_nothing(self, tmp_path):
        c = _campaign()
        store = ResultStore(tmp_path)
        summary = run_campaign(c, store, limit=0)
        assert summary.executed == 0
        assert summary.remaining == c.total_runs

    def test_negative_limit_is_rejected_before_the_store_changes(self, tmp_path):
        # ``pending[:-1]`` used to run every pending run but the last.
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            run_campaign(_campaign(), store, limit=-1)
        assert len(store) == 0
        assert not store.spec_path.exists()


class TestReport:
    def test_marginals_average_over_other_axes(self, tmp_path):
        c = _campaign()
        store = ResultStore(tmp_path)
        run_campaign(c, store)
        report = CampaignReport.from_store(c, store)
        miss = report.marginals("rt_miss_ratio")
        assert set(miss) == {"protocol", "utilisation"}
        assert set(miss["protocol"]) == {"ccr-edf", "tdma"}
        # CCR-EDF never misses on these feasible loads; TDMA does at 0.8.
        assert miss["protocol"]["ccr-edf"] == 0.0
        assert miss["protocol"]["tdma"] > 0.0

    def test_unknown_metric_rejected(self, tmp_path):
        c = _campaign()
        store = ResultStore(tmp_path)
        run_campaign(c, store)
        with pytest.raises(ValueError, match="unknown metric"):
            CampaignReport.from_store(c, store).marginals("bogus")

    def test_json_artifact(self, tmp_path):
        import json

        c = _campaign()
        store = ResultStore(tmp_path)
        run_campaign(c, store)
        path = CampaignReport.from_store(c, store).to_json(
            tmp_path / "out.json"
        )
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == c.total_runs
        assert doc["missing"] == 0
        assert "rt_miss_ratio" in doc["marginals"]
