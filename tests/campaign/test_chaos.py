"""Chaos tests: the campaign layer under injected faults.

Each test drives :func:`repro.campaign.run_campaign` with the
failure-injecting ``run_fn`` from :mod:`tests.campaign.chaos` and checks
the two supervision guarantees:

* *bounded damage* -- flaky runs retry, poison runs quarantine after
  exactly the configured attempt budget, worker death and hangs cost a
  pool rebuild but never the campaign;
* *bit-identity* -- whatever chaos happened on the way, the final
  :class:`CampaignReport` is byte-identical to one computed with no
  faults at all.
"""

import pytest

from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    RetryPolicy,
    WorkloadSpec,
    expand_runs,
    run_campaign,
    run_key,
)
from repro.obs.events import EventDispatcher, EventSink
from repro.obs.registry import CAMPAIGN_COUNTERS
from repro.sim.runner import ScenarioConfig
from tests.campaign import chaos

#: Retries tuned for test speed: full triple-failure cycle < 100 ms.
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05, jitter=0.5
)


def _campaign(**overrides):
    kwargs = dict(
        name="chaos",
        base=ScenarioConfig(n_nodes=4),
        n_slots=200,
        axes={"utilisation": (0.4, 0.8)},
        workload=WorkloadSpec(n_connections=4),
        n_replications=2,
        master_seed=7,
        retry=FAST_RETRY,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


def _key_of(campaign, ident):
    """The store key of the run whose chaos id is ``ident``."""
    for spec in expand_runs(campaign):
        if chaos.run_id(spec) == ident:
            return run_key(spec)
    raise AssertionError(f"no run {ident!r} in campaign")


def _report_bytes(campaign, store, path):
    CampaignReport.from_store(campaign, store).to_csv(path)
    return path.read_bytes()


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    """A chaos directory wired into the environment (fork workers
    inherit it)."""
    root = tmp_path / "chaos"
    monkeypatch.setenv(chaos.ENV_DIR, str(root))
    return root


class _CollectSink(EventSink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestRetry:
    def test_flaky_run_retries_to_success(self, tmp_path, chaos_dir):
        c = _campaign()
        chaos.write_plan(chaos_dir, {"0:0": {"mode": "fail", "times": 2}})
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(c, store, run_fn=chaos.chaos_execute_run)
        assert summary.complete
        assert summary.executed == c.total_runs
        assert summary.failed_attempts == 2
        assert summary.quarantined == 0
        assert chaos.attempts_made(chaos_dir, "0:0") == 3
        # The retried result is indistinguishable from a fault-free one.
        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean)
        assert _report_bytes(c, store, tmp_path / "a.csv") == _report_bytes(
            c, clean, tmp_path / "b.csv"
        )

    def test_retry_timeline_is_deterministic(self):
        from repro.campaign import backoff_delay

        c = _campaign()
        spec = next(iter(expand_runs(c)))
        delays = [backoff_delay(FAST_RETRY, spec, a) for a in (1, 2)]
        again = [backoff_delay(FAST_RETRY, spec, a) for a in (1, 2)]
        assert delays == again
        assert all(0 < d <= FAST_RETRY.backoff_max_s for d in delays)
        # A different run draws different jitter.
        other = list(expand_runs(c))[1]
        assert backoff_delay(FAST_RETRY, other, 1) != delays[0]


class TestQuarantine:
    def test_poison_run_quarantined_after_exact_budget(
        self, tmp_path, chaos_dir
    ):
        c = _campaign()
        chaos.write_plan(chaos_dir, {"1:0": {"mode": "fail"}})
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(c, store, run_fn=chaos.chaos_execute_run)
        # Exactly max_attempts attempts -- not one more, not one less.
        assert chaos.attempts_made(chaos_dir, "1:0") == FAST_RETRY.max_attempts
        assert summary.quarantined == 1
        assert summary.failed_attempts == FAST_RETRY.max_attempts
        assert not summary.complete
        # Quarantine never takes the batch-mates down with it.
        assert summary.executed == c.total_runs - 1
        assert summary.remaining == 0

        key = _key_of(c, "1:0")
        assert store.failure_keys() == [key]
        doc = store.load_failure(key)
        assert doc["run_key"] == key
        assert doc["max_attempts"] == FAST_RETRY.max_attempts
        timeline = doc["attempts"]
        assert [e["attempt"] for e in timeline] == [1, 2, 3]
        assert all(e["kind"] == "exception" for e in timeline)
        assert all(e["error_type"] == "ChaosFailure" for e in timeline)
        assert all(len(e["traceback_sha256"]) == 64 for e in timeline)
        # Backoff was scheduled after every non-final attempt only.
        assert [("backoff_s" in e) for e in timeline] == [True, True, False]

    def test_sharded_poison_does_not_discard_batch_mates(
        self, tmp_path, chaos_dir
    ):
        """Regression: a failing future used to make the collector drop
        the *successful* futures that completed in the same ``wait()``
        batch.  Every non-poisoned run must be persisted."""
        c = _campaign()
        chaos.write_plan(chaos_dir, {"0:0": {"mode": "fail"}})
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            c, store, n_jobs=2, run_fn=chaos.chaos_execute_run
        )
        assert summary.quarantined == 1
        assert summary.executed == c.total_runs - 1
        assert len(store) == c.total_runs - 1
        assert store.failure_keys() == [_key_of(c, "0:0")]

    def test_quarantine_gets_fresh_budget_on_resume(
        self, tmp_path, chaos_dir
    ):
        c = _campaign()
        chaos.write_plan(chaos_dir, {"1:0": {"mode": "fail"}})
        store = ResultStore(tmp_path / "store")
        run_campaign(c, store, run_fn=chaos.chaos_execute_run)
        # Still poisoned: re-quarantined after another full budget.
        second = run_campaign(c, store, run_fn=chaos.chaos_execute_run)
        assert second.skipped == c.total_runs - 1
        assert second.quarantined == 1
        assert chaos.attempts_made(chaos_dir, "1:0") == 2 * FAST_RETRY.max_attempts
        # Fault fixed (plan emptied): the run completes and the failure
        # document is cleared.
        chaos.write_plan(chaos_dir, {})
        third = run_campaign(c, store, run_fn=chaos.chaos_execute_run)
        assert third.complete and third.executed == 1
        assert store.failure_keys() == []
        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean)
        assert _report_bytes(c, store, tmp_path / "a.csv") == _report_bytes(
            c, clean, tmp_path / "b.csv"
        )


class TestWorkerDeath:
    def test_sigkilled_worker_rebuilds_pool_and_recovers(
        self, tmp_path, chaos_dir
    ):
        c = _campaign()
        chaos.write_plan(chaos_dir, {"0:1": {"mode": "kill", "times": 1}})
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            c, store, n_jobs=2, run_fn=chaos.chaos_execute_run
        )
        assert summary.complete
        assert summary.pool_rebuilds >= 1
        assert summary.failed_attempts >= 1
        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean)
        assert _report_bytes(c, store, tmp_path / "a.csv") == _report_bytes(
            c, clean, tmp_path / "b.csv"
        )

    def test_hung_worker_killed_at_deadline_and_retried(
        self, tmp_path, chaos_dir
    ):
        c = _campaign(
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base_s=0.01,
                backoff_max_s=0.05,
                run_timeout_s=1.0,
            )
        )
        chaos.write_plan(
            chaos_dir, {"0:0": {"mode": "hang", "times": 1, "hang_s": 60.0}}
        )
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            c, store, n_jobs=2, run_fn=chaos.chaos_execute_run
        )
        assert summary.complete
        assert summary.pool_rebuilds >= 1
        assert summary.failed_attempts >= 1
        assert store.failure_keys() == []


class TestCorruption:
    def test_corrupt_cache_entries_self_heal_on_resume(self, tmp_path):
        c = _campaign()
        run_campaign(c, ResultStore(tmp_path / "store"))
        chaos.damage_record(tmp_path / "store", 1, "flip")
        chaos.damage_record(tmp_path / "store", 0, "truncate")
        # The resuming process opens the store afresh.
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(c, store)
        assert summary.corrupt_replaced == 2
        assert summary.executed == 2
        assert summary.complete
        # Last record wins: the re-runs were appended, the damaged lines
        # stay behind until `fsck --repair` compacts them away.
        assert len(chaos.record_spans(store.root)) == c.total_runs + 2
        reasons = [reason for _where, reason in store.fsck().corrupt]
        assert len(reasons) == 2
        assert all("superseded by a later record" in r for r in reasons)
        assert store.fsck(repair=True).clean and store.fsck().clean
        assert len(chaos.record_spans(store.root)) == c.total_runs
        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean)
        assert _report_bytes(c, store, tmp_path / "a.csv") == _report_bytes(
            c, clean, tmp_path / "b.csv"
        )


class TestObservability:
    def test_supervision_events_and_counters_stay_in_taxonomy(
        self, tmp_path, chaos_dir
    ):
        c = _campaign()
        chaos.write_plan(
            chaos_dir,
            {"0:0": {"mode": "fail", "times": 1},
             "1:0": {"mode": "fail"}},
        )
        sink = _CollectSink()
        observer = EventDispatcher()
        observer.add_sink(sink)
        store = ResultStore(tmp_path / "store")
        first = run_campaign(
            c, store, observer=observer, run_fn=chaos.chaos_execute_run
        )
        # Corrupt-cache detection is part of the same event stream: heal
        # the plan, damage a cached document, and resume.
        chaos.write_plan(chaos_dir, {})
        chaos.damage_record(store.root, 0)
        store = ResultStore(store.root)
        second = run_campaign(
            c, store, observer=observer, run_fn=chaos.chaos_execute_run
        )
        kinds = {e.kind for e in sink.events}
        assert kinds == {"run_retry", "run_quarantine", "store_corrupt"}
        corrupt = [e for e in sink.events if e.kind == "store_corrupt"]
        assert [e.path for e in corrupt] == [str(store.segment_path)]
        # Every supervision counter is registered in the obs taxonomy
        # (what the event-metric-parity lint enforces statically).
        for summary in (first, second):
            assert set(summary.registry.counters) <= set(CAMPAIGN_COUNTERS)
        assert first.registry.counters["campaign:run_quarantine"] == 1
        assert second.registry.counters["campaign:store_corrupt"] == 1
        retries = sum(1 for e in sink.events if e.kind == "run_retry")
        assert first.registry.counters["campaign:run_retry"] == retries
        # Events serialise (the JSONL sink path).
        for event in sink.events:
            assert event.to_json().startswith("{")


class TestCliExitCodes:
    def _args(self, **kw):
        import argparse

        defaults = dict(
            store="unused", spec=None, jobs=1, limit=None,
            max_attempts=None, run_timeout=None, events=None,
        )
        defaults.update(kw)
        return argparse.Namespace(**defaults)

    def _run_with_summary(self, monkeypatch, tmp_path, summary):
        import repro.campaign
        import repro.cli as cli

        c = _campaign()
        store = ResultStore(tmp_path / "store")
        store.save_campaign(c)
        monkeypatch.setattr(
            repro.campaign, "run_campaign",
            lambda *a, **k: summary,
        )
        return cli.cmd_campaign_run(self._args(store=str(store.root)))

    def test_exit_codes_distinguish_quarantine_from_incomplete(
        self, monkeypatch, tmp_path
    ):
        from repro.campaign import ExecutionSummary
        from repro.cli import (
            EXIT_CAMPAIGN_INCOMPLETE,
            EXIT_CAMPAIGN_QUARANTINED,
        )

        def summary(**kw):
            base = dict(total=4, executed=4, skipped=0, remaining=0)
            base.update(kw)
            return ExecutionSummary(**base)

        assert self._run_with_summary(
            monkeypatch, tmp_path, summary()
        ) == 0
        assert self._run_with_summary(
            monkeypatch, tmp_path, summary(executed=2, remaining=2)
        ) == EXIT_CAMPAIGN_INCOMPLETE
        assert self._run_with_summary(
            monkeypatch, tmp_path,
            summary(executed=2, remaining=2, interrupted=True),
        ) == EXIT_CAMPAIGN_INCOMPLETE
        # Quarantine wins over mere incompleteness.
        assert self._run_with_summary(
            monkeypatch, tmp_path,
            summary(executed=1, remaining=2, quarantined=1),
        ) == EXIT_CAMPAIGN_QUARANTINED
