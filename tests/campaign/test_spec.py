"""Campaign spec validation, serialisation, and grid expansion."""

import json

import pytest

from repro.campaign import (
    Campaign,
    WorkloadSpec,
    expand_grid,
    expand_runs,
)
from repro.core.connection import LogicalRealTimeConnection
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import PROTOCOLS, ScenarioConfig


def small_campaign(**overrides):
    kwargs = dict(
        name="t",
        base=ScenarioConfig(n_nodes=6),
        n_slots=1000,
        axes={"protocol": ("ccr-edf", "tdma"), "utilisation": (0.4, 0.8)},
        workload=WorkloadSpec(n_connections=4),
        n_replications=2,
        master_seed=5,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestCampaignValidation:
    def test_counts(self):
        c = small_campaign()
        assert c.grid_size == 4
        assert c.total_runs == 8
        assert c.axis_names == ("protocol", "utilisation")

    def test_axes_mapping_normalised_to_ordered_pairs(self):
        c = small_campaign()
        assert c.axes == (
            ("protocol", ("ccr-edf", "tdma")),
            ("utilisation", (0.4, 0.8)),
        )

    def test_axisless_campaign_is_a_single_point(self):
        c = small_campaign(axes={}, workload=None)
        assert c.grid_size == 1
        assert c.total_runs == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            small_campaign(axes={"bogus": (1, 2)})

    def test_workload_axis_requires_workload(self):
        with pytest.raises(ValueError, match="declares no WorkloadSpec"):
            small_campaign(axes={"n_connections": (4, 8)}, workload=None)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            small_campaign(axes={"protocol": ()})

    def test_bad_protocol_value_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            small_campaign(axes={"protocol": ("token-ring",)})

    def test_bad_replications_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            small_campaign(n_replications=0)

    def test_bad_workload_rejected(self):
        with pytest.raises(ValueError, match="utilisation"):
            WorkloadSpec(utilisation=-0.5)


class TestSerialisation:
    def test_dict_round_trip(self):
        c = small_campaign(
            base=ScenarioConfig(
                n_nodes=6,
                drop_late=True,
                fault_config=FaultConfig(p_distribution_loss=0.01),
            )
        )
        assert Campaign.from_dict(json.loads(json.dumps(c.to_dict()))) == c

    def test_json_file_round_trip(self, tmp_path):
        c = small_campaign()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(c.to_dict()))
        assert Campaign.from_json_file(path) == c

    def test_explicit_connections_round_trip(self, tmp_path):
        """A base that carries its own connections survives the JSON form
        (``to_dict`` -> ``from_dict`` / ``from_json_file``) with every
        run key unchanged."""
        conns = tuple(
            LogicalRealTimeConnection(
                source=i,
                destinations=frozenset({(i + 2) % 6, (i + 3) % 6}),
                period_slots=20 + 5 * i,
                size_slots=1 + i % 2,
                phase_slots=i,
                connection_id=900 + i,
            )
            for i in range(3)
        )
        c = small_campaign(
            base=ScenarioConfig(n_nodes=6, connections=conns),
            axes={"protocol": ("ccr-edf", "tdma")},
            workload=None,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(c.to_dict()))
        keys = [spec.key for spec in expand_runs(c)]
        for loaded in (
            Campaign.from_dict(json.loads(json.dumps(c.to_dict()))),
            Campaign.from_json_file(path),
        ):
            assert loaded == c
            assert loaded.base.connections == conns
            assert [spec.key for spec in expand_runs(loaded)] == keys

    def test_mapping_axes_accepted_in_spec_files(self):
        raw = small_campaign().to_dict()
        raw["axes"] = {"protocol": list(PROTOCOLS)}
        c = Campaign.from_dict(raw)
        assert c.axes == (("protocol", tuple(PROTOCOLS)),)

    def test_unknown_key_rejected(self):
        raw = small_campaign().to_dict()
        raw["replicas"] = 3
        with pytest.raises(ValueError, match="unknown campaign keys"):
            Campaign.from_dict(raw)


class TestGridExpansion:
    def test_row_major_order_last_axis_fastest(self):
        points = expand_grid(small_campaign())
        assert [p.overrides for p in points] == [
            (("protocol", "ccr-edf"), ("utilisation", 0.4)),
            (("protocol", "ccr-edf"), ("utilisation", 0.8)),
            (("protocol", "tdma"), ("utilisation", 0.4)),
            (("protocol", "tdma"), ("utilisation", 0.8)),
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_scenario_and_workload_overrides_applied(self):
        points = expand_grid(small_campaign())
        assert points[3].config.protocol == "tdma"
        assert points[3].workload.utilisation == 0.8
        # The base scenario itself is untouched.
        assert points[3].config.connections == ()

    def test_n_slots_axis(self):
        c = small_campaign(axes={"n_slots": (100, 200)})
        points = expand_grid(c)
        assert [p.n_slots for p in points] == [100, 200]

    def test_run_seeds_distinct_and_deterministic(self):
        runs = list(expand_runs(small_campaign()))
        entropies = [r.seed_entropy for r in runs]
        assert len(set(entropies)) == len(runs)
        assert entropies[0] == (5, 0, 0)
        assert entropies[1] == (5, 0, 1)
        assert entropies[-1] == (5, 3, 1)


class TestRetryPolicy:
    def test_defaults_and_round_trip(self):
        from repro.campaign import RetryPolicy

        c = small_campaign()
        assert c.retry == RetryPolicy()
        again = Campaign.from_dict(c.to_dict())
        assert again == c

        tuned = small_campaign(
            retry=RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                              backoff_max_s=2.0, jitter=0.25,
                              run_timeout_s=60.0)
        )
        assert Campaign.from_dict(tuned.to_dict()).retry == tuned.retry

    def test_absent_retry_key_defaults(self):
        from repro.campaign import RetryPolicy

        raw = small_campaign().to_dict()
        del raw["retry"]
        assert Campaign.from_dict(raw).retry == RetryPolicy()

    def test_validation(self):
        from repro.campaign import RetryPolicy

        with pytest.raises(ValueError, match="at least one attempt"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError, match="backoff_max_s"):
            RetryPolicy(backoff_base_s=5.0, backoff_max_s=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="run_timeout_s"):
            RetryPolicy(run_timeout_s=0.0)

    def test_retry_does_not_change_run_keys(self):
        from repro.campaign import RetryPolicy, run_key

        base = list(expand_runs(small_campaign()))
        tuned = list(
            expand_runs(small_campaign(retry=RetryPolicy(max_attempts=9)))
        )
        assert [run_key(s) for s in base] == [run_key(s) for s in tuned]


class TestPolicyAxis:
    def test_policy_axis_accepted_and_round_trips(self):
        c = small_campaign(axes={"policy": ("edf", "rm", "fifo")})
        assert c.grid_size == 3
        assert Campaign.from_dict(json.loads(json.dumps(c.to_dict()))) == c

    def test_base_policy_round_trips(self):
        c = small_campaign(base=ScenarioConfig(n_nodes=6, policy="rm"))
        again = Campaign.from_dict(json.loads(json.dumps(c.to_dict())))
        assert again.base.policy == "rm"

    def test_bad_policy_value_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            small_campaign(axes={"policy": ("lottery",)})

    def test_profile_axis_validated(self):
        c = small_campaign(axes={"profile": ("uniform", "industrial")})
        assert c.grid_size == 2
        with pytest.raises(ValueError, match="not in"):
            small_campaign(axes={"profile": ("spiky",)})

    def test_policy_enters_run_fingerprint(self):
        # A cached EDF row must never be served for an RM run: the
        # policy is part of the scenario, so it changes every run key.
        from repro.campaign import run_key

        edf = list(expand_runs(small_campaign(axes={})))
        rm = list(
            expand_runs(
                small_campaign(
                    axes={}, base=ScenarioConfig(n_nodes=6, policy="rm")
                )
            )
        )
        assert len(edf) == len(rm)
        assert not {run_key(s) for s in edf} & {run_key(s) for s in rm}

    def test_workload_profile_enters_run_fingerprint(self):
        from repro.campaign import run_key

        uniform = list(expand_runs(small_campaign(axes={})))
        industrial = list(
            expand_runs(
                small_campaign(
                    axes={},
                    workload=WorkloadSpec(n_connections=4, profile="industrial"),
                )
            )
        )
        assert not {run_key(s) for s in uniform} & {
            run_key(s) for s in industrial
        }

    def test_policy_axis_expands_into_scenarios(self):
        c = small_campaign(axes={"policy": ("edf", "rm")})
        points = expand_grid(c)
        assert [p.config.policy for p in points] == ["edf", "rm"]

    def test_committed_study_specs_load(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "benchmarks" / "campaigns"
        zoo = Campaign.from_json_file(root / "scheduler_zoo.json")
        assert "policy" in zoo.axis_names
        assert zoo.workload is not None and zoo.workload.profile == "ama-andam"
        assert zoo.base.spatial_reuse is False
        smoke = Campaign.from_json_file(root / "policy_smoke.json")
        assert smoke.workload is not None
        assert smoke.workload.profile == "industrial"
