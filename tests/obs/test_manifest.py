"""Tests for run manifests (provenance records)."""

import json

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.obs.manifest import (
    RunManifest,
    git_revision,
    manifest_path_for,
    package_version,
    scenario_to_dict,
)
from repro.obs.registry import MetricRegistry
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, run_scenario


def small_scenario():
    conns = (
        LogicalRealTimeConnection(
            source=0,
            destinations=frozenset({2}),
            period_slots=10,
            size_slots=1,
            connection_id=1,
        ),
    )
    return ScenarioConfig(n_nodes=4, connections=conns)


class TestHelpers:
    def test_package_version_matches_package(self):
        import repro

        assert package_version() == repro.__version__

    def test_git_revision_in_this_checkout(self):
        rev = git_revision()
        # The repo under test is a git checkout; elsewhere None is fine.
        assert rev is None or (len(rev) == 40 and set(rev) <= set("0123456789abcdef"))

    def test_scenario_to_dict_serialises_frozensets(self):
        d = scenario_to_dict(small_scenario())
        assert d["n_nodes"] == 4
        assert d["connections"][0]["destinations"] == [2]
        json.dumps(d)  # fully JSON-ready

    def test_scenario_to_dict_rejects_junk(self):
        with pytest.raises(TypeError, match="dataclass or dict"):
            scenario_to_dict(42)

    def test_manifest_path_for(self, tmp_path):
        assert manifest_path_for(tmp_path / "out.csv") == (
            tmp_path / "out.csv.manifest.json"
        )


class TestRunManifest:
    def test_collect_embeds_report_and_profile(self):
        config = small_scenario()
        profiler = PhaseProfiler()
        report = run_scenario(config, n_slots=500, options=RunOptions(profiler=profiler))
        registry = MetricRegistry()
        registry.inc("sim:released", report.total_released)
        manifest = RunManifest.collect(
            scenario=config,
            master_seed=42,
            n_slots=500,
            report=report,
            profiler=profiler,
            registry=registry,
            elapsed_s=0.1,
            extra={"note": "test"},
        )
        assert manifest.master_seed == 42
        assert manifest.scenario["n_nodes"] == 4
        assert manifest.report["released"] == report.total_released
        assert manifest.report["missed"] == report.total_missed
        assert manifest.report["dropped"] == report.total_dropped
        # Phase names depend on the engine (oracle: release/execute/...,
        # vector: ingest/kernel/fold); the manifest embeds whichever ran.
        assert manifest.profile
        assert all(
            {"seconds", "calls", "share"} <= set(phase)
            for phase in manifest.profile.values()
        )
        assert manifest.registry["counters"]["sim:released"] == (
            report.total_released
        )
        assert manifest.extra == {"note": "test"}
        assert manifest.package_version == package_version()

    def test_write_read_round_trip(self, tmp_path):
        config = small_scenario()
        report = run_scenario(config, n_slots=200)
        manifest = RunManifest.collect(
            scenario=config, master_seed=7, n_slots=200, report=report
        )
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.read(path)
        assert loaded["master_seed"] == 7
        assert loaded["n_slots"] == 200
        assert loaded["scenario"]["protocol"] == "ccr-edf"
        assert loaded["report"]["released"] == report.total_released

    def test_collect_with_nothing_is_still_valid(self, tmp_path):
        manifest = RunManifest.collect()
        path = manifest.write(tmp_path / "bare.json")
        loaded = RunManifest.read(path)
        assert loaded["scenario"] is None
        assert loaded["python"]
