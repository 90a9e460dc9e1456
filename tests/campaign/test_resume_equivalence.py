"""Resume equivalence under generated chaos.

Whatever happens to a campaign on the way -- flaky and poisoned runs,
``limit=`` cuts, records damaged in place, a segment tail torn off --
once the faults are healed, ``fsck --repair`` has run and the campaign
has been resumed to completion, the report must be the bytes an
uninterrupted serial run produces.  Hypothesis generates the histories;
each invocation opens the store afresh, as a new process would.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    RetryPolicy,
    WorkloadSpec,
    expand_runs,
    run_campaign,
)
from repro.sim.runner import ScenarioConfig
from tests.campaign import chaos

CAMPAIGN = Campaign(
    name="resume-equivalence",
    base=ScenarioConfig(n_nodes=4),
    n_slots=200,
    axes={"utilisation": (0.3, 0.6, 0.9)},
    workload=WorkloadSpec(n_connections=4),
    n_replications=2,
    master_seed=13,
    retry=RetryPolicy(
        max_attempts=3, backoff_base_s=0.001, backoff_max_s=0.004, jitter=0.5
    ),
)
RUN_IDS = [chaos.run_id(spec) for spec in expand_runs(CAMPAIGN)]

#: ``fail`` for the first one or two attempts (retried to success within
#: the budget) or for every attempt (quarantined until the plan heals).
behaviours = st.one_of(
    st.builds(lambda t: {"mode": "fail", "times": t}, st.integers(1, 2)),
    st.just({"mode": "fail"}),
)
plans = st.dictionaries(st.sampled_from(RUN_IDS), behaviours, max_size=3)
damages = st.one_of(
    st.none(),
    st.tuples(
        st.just("record"),
        st.integers(0, 2 * len(RUN_IDS)),
        st.sampled_from(("truncate", "flip", "garbage")),
    ),
    st.tuples(st.just("tail"), st.integers(1, 600)),
)
#: One interrupted invocation: a ``limit=`` cut, then damage to the store.
steps = st.lists(
    st.tuples(st.integers(0, len(RUN_IDS)), damages), min_size=1, max_size=3
)


def _report_bytes(store: ResultStore, path: Path) -> bytes:
    CampaignReport.from_store(CAMPAIGN, store).to_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    root = tmp_path_factory.mktemp("uninterrupted")
    store = ResultStore(root / "store")
    assert run_campaign(CAMPAIGN, store, n_jobs=1).complete
    return _report_bytes(store, root / "report.csv")


def _damage(root: Path, damage) -> None:
    if damage is None or not (root / "runs.jsonl").exists():
        return
    if damage[0] == "tail":
        chaos.truncate_tail(root, damage[1])
    elif chaos.record_spans(root):
        _kind, n, how = damage
        chaos.damage_record(root, n % len(chaos.record_spans(root)), how)


@pytest.mark.parametrize("n_jobs", (1, 2))
@settings(max_examples=30, deadline=None)
@given(plan=plans, history=steps)
def test_interrupted_damaged_resumed_equals_uninterrupted(
    uninterrupted, n_jobs, plan, history
):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as env:
        root = Path(tmp) / "store"
        env.setenv(chaos.ENV_DIR, str(Path(tmp) / "chaos"))
        chaos.write_plan(Path(tmp) / "chaos", plan)
        for limit, damage in history:
            run_campaign(
                CAMPAIGN, ResultStore(root), n_jobs=n_jobs, limit=limit,
                run_fn=chaos.chaos_execute_run,
            )
            _damage(root, damage)

        chaos.write_plan(Path(tmp) / "chaos", {})  # faults healed
        assert ResultStore(root).fsck(repair=True).clean
        assert not ResultStore(root).fsck().corrupt
        final = run_campaign(
            CAMPAIGN, ResultStore(root), n_jobs=n_jobs,
            run_fn=chaos.chaos_execute_run,
        )
        assert final.complete and final.corrupt_replaced == 0

        store = ResultStore(root)
        assert store.failure_keys() == []
        assert len(store) == CAMPAIGN.total_runs
        assert not store.fsck().corrupt
        assert _report_bytes(store, Path(tmp) / "report.csv") == uninterrupted
