"""Tests for the scenario runner."""

import dataclasses

import pytest

from repro.baselines.ccfpr import CcFprProtocol
from repro.baselines.tdma import TdmaProtocol
from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.clocking import RoundRobinHandover, EdfHandover
from repro.sim.engine import Simulation
from repro.sim.runner import (
    PROTOCOLS,
    RunOptions,
    ScenarioConfig,
    build_simulation,
    make_protocol,
    make_timing,
    run_scenario,
)


def conn(source=0, dst=2, period=10, size=1):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
    )


class TestConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ScenarioConfig(n_nodes=8, protocol="aloha")

    def test_all_declared_protocols_instantiable(self):
        for name in PROTOCOLS:
            config = ScenarioConfig(n_nodes=8, protocol=name)
            timing = make_timing(config)
            make_protocol(config, timing.topology)

    def test_protocol_types(self):
        timing = make_timing(ScenarioConfig(n_nodes=8))
        p = make_protocol(ScenarioConfig(n_nodes=8, protocol="ccr-edf"), timing.topology)
        assert isinstance(p, CcrEdfProtocol) and isinstance(p.handover, EdfHandover)
        p = make_protocol(ScenarioConfig(n_nodes=8, protocol="upper-edf"), timing.topology)
        assert isinstance(p, CcrEdfProtocol) and isinstance(
            p.handover, RoundRobinHandover
        )
        p = make_protocol(ScenarioConfig(n_nodes=8, protocol="ccfpr"), timing.topology)
        assert isinstance(p, CcFprProtocol)
        p = make_protocol(ScenarioConfig(n_nodes=8, protocol="tdma"), timing.topology)
        assert isinstance(p, TdmaProtocol)

    def test_spatial_reuse_flag_propagates(self):
        timing = make_timing(ScenarioConfig(n_nodes=8))
        p = make_protocol(
            ScenarioConfig(n_nodes=8, spatial_reuse=False), timing.topology
        )
        assert p.arbiter.spatial_reuse is False


class TestRunScenario:
    def test_end_to_end(self):
        config = ScenarioConfig(n_nodes=8, connections=(conn(),))
        report = run_scenario(config, n_slots=500)
        rt = report.class_stats(TrafficClass.RT_CONNECTION)
        assert rt.released == 50
        assert rt.deadline_missed == 0

    def test_identical_configs_give_identical_reports(self):
        config = ScenarioConfig(n_nodes=8, connections=(conn(), conn(source=3, dst=6)))
        a = run_scenario(config, n_slots=300)
        b = run_scenario(config, n_slots=300)
        assert a.packets_sent == b.packets_sent
        assert a.wall_time_s == b.wall_time_s
        assert dict(a.handover_hops) == dict(b.handover_hops)

    def test_build_simulation_reusable(self):
        config = ScenarioConfig(n_nodes=4, connections=(conn(dst=1),))
        sim = build_simulation(config)
        sim.run(100)
        assert sim.report.slots_simulated == 100

    def test_timing_uses_config_parameters(self):
        config = ScenarioConfig(
            n_nodes=16, link_length_m=50.0, slot_payload_bytes=2048
        )
        timing = make_timing(config)
        assert timing.topology.n_nodes == 16
        assert timing.topology.mean_link_length_m == 50.0
        assert timing.slot_payload_bytes == 2048

    def test_same_workload_all_protocols_run(self):
        for name in PROTOCOLS:
            config = ScenarioConfig(
                n_nodes=8, protocol=name, connections=(conn(),)
            )
            report = run_scenario(config, n_slots=200)
            assert report.slots_simulated == 200


class TestRunOptions:
    def test_frozen_and_tupled_sources(self):
        from repro.services.api import MessageInjector

        opts = RunOptions(extra_sources=[MessageInjector(0)])
        assert isinstance(opts.extra_sources, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.fast_forward = False

    def test_replace_returns_modified_copy(self):
        opts = RunOptions()
        off = opts.replace(fast_forward=False)
        assert off.fast_forward is False
        assert opts.fast_forward is True

    def test_from_scenario_constructor(self):
        config = ScenarioConfig(n_nodes=4, connections=(conn(dst=1),))
        sim = Simulation.from_scenario(config)
        sim.run(100)
        assert sim.report.slots_simulated == 100

    def test_from_scenario_applies_options(self):
        config = ScenarioConfig(n_nodes=4)
        sim = Simulation.from_scenario(
            config, RunOptions(fast_forward=False)
        )
        assert sim.fast_forward is False

    def test_with_admission_option(self):
        config = ScenarioConfig(n_nodes=8, connections=(conn(),))
        sim = build_simulation(config, RunOptions(with_admission=True))
        assert sim.admission is not None
        assert sim.admission.utilisation > 0


class TestRemovedShims:
    """The PR 4 deprecation shims were removed in 2.0: they raise now."""

    def test_build_simulation_kwargs_rejected(self):
        config = ScenarioConfig(n_nodes=4)
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_simulation(config, fast_forward=False)

    def test_run_scenario_kwargs_rejected(self):
        config = ScenarioConfig(n_nodes=4, connections=(conn(dst=1),))
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_scenario(config, n_slots=100, with_admission=True)

    def test_positional_extra_sources_rejected(self):
        from repro.services.api import MessageInjector

        config = ScenarioConfig(n_nodes=4)
        replacement = r"removed in 2\.0.*options=RunOptions\(extra_sources="
        with pytest.raises(TypeError, match=replacement):
            build_simulation(config, [MessageInjector(0)])
        with pytest.raises(TypeError, match=replacement):
            run_scenario(config, 10, [MessageInjector(0)])

    def test_unknown_kwarg_rejected(self):
        config = ScenarioConfig(n_nodes=4)
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_simulation(config, warp_drive=True)
