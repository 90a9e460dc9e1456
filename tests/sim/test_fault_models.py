"""Tests for the composable stochastic fault models and recovery policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.connection import LogicalRealTimeConnection
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.sim.engine import Simulation
from repro.sim.fault_models import (
    BernoulliControlLoss,
    ClockGlitchFaults,
    CompositeFaultModel,
    FaultConfig,
    FaultModel,
    GilbertElliottControlLoss,
    RecoveryPolicy,
    ScriptedFaultModel,
    ScriptedNodeOutages,
    TransientNodeFaults,
)
from repro.traffic.periodic import ConnectionSource

RECOVERY = RecoveryPolicy(timeout_s=2e-6)


class TestRecoveryPolicy:
    def test_defaults_valid(self):
        policy = RecoveryPolicy()
        assert policy.timeout_for(0) == policy.timeout_s

    def test_backoff_sequence(self):
        policy = RecoveryPolicy(
            timeout_s=1e-6, backoff_factor=2.0, max_backoff=8.0
        )
        timeouts = [policy.timeout_for(a) for a in range(6)]
        assert timeouts == pytest.approx(
            [1e-6, 2e-6, 4e-6, 8e-6, 8e-6, 8e-6]
        )

    def test_backoff_disabled(self):
        policy = RecoveryPolicy(timeout_s=1e-6, backoff_factor=1.0)
        assert policy.timeout_for(10) == pytest.approx(1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RecoveryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff factor"):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max backoff"):
            RecoveryPolicy(max_backoff=0.9)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RecoveryPolicy().timeout_for(-1)


class TestScriptedFaultModel:
    def test_matches_wrapped_injector(self):
        model = ScriptedFaultModel(
            node_failures={2: 100},
            control_loss_slots=frozenset({5, 9}),
            recovery=RecoveryPolicy(timeout_s=3e-6),
        )
        assert model.is_alive(2, 99) and not model.is_alive(2, 100)
        assert model.distribution_lost(5) and not model.distribution_lost(6)
        # The script never loses the collection packet.
        assert not any(model.collection_lost(s) for s in range(100))
        assert model.recovery.timeout_s == 3e-6

    def test_coerce_wraps_injector(self):
        """No adapter: the engine drives the scripted model itself."""
        model = ScriptedFaultModel(control_loss_slots=frozenset({1}))
        assert _build_sim(4, model).faults is model

    def test_coerce_passthrough_and_rejection(self):
        assert _build_sim(4, None).faults is None
        model = FaultModel()
        assert _build_sim(4, model).faults is model
        with pytest.raises(TypeError, match=r"ScriptedFaultModel\(node_failures"):
            _build_sim(4, "not a model")


class TestScriptedNodeOutages:
    def test_outage_windows(self):
        model = ScriptedNodeOutages({1: [(10, 20), (50, None)]})
        assert model.is_alive(1, 9)
        assert not model.is_alive(1, 10)
        assert not model.is_alive(1, 19)
        assert model.is_alive(1, 20)
        assert not model.is_alive(1, 10**9)  # permanent second outage
        assert model.is_alive(0, 15)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ScriptedNodeOutages({0: [(10, 20), (15, 30)]})

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="bad outage interval"):
            ScriptedNodeOutages({0: [(10, 10)]})

    def test_empty_script_keeps_every_node_alive(self):
        model = ScriptedNodeOutages({})
        assert all(model.is_alive(n, s) for n in range(4) for s in range(100))


class TestBernoulliControlLoss:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="collection"):
            BernoulliControlLoss(np.random.default_rng(0), p_collection=1.0)
        with pytest.raises(ValueError, match="distribution"):
            BernoulliControlLoss(np.random.default_rng(0), p_distribution=-0.1)

    def test_zero_probability_never_loses(self):
        model = BernoulliControlLoss(np.random.default_rng(0))
        assert not any(model.collection_lost(s) for s in range(500))

    def test_query_order_does_not_change_answers(self):
        a = BernoulliControlLoss(
            np.random.default_rng(3), p_collection=0.3, p_distribution=0.3
        )
        b = BernoulliControlLoss(
            np.random.default_rng(3), p_collection=0.3, p_distribution=0.3
        )
        # a queried forwards, b queried backwards and interleaved.
        forward = [(a.collection_lost(s), a.distribution_lost(s)) for s in range(50)]
        for s in reversed(range(50)):
            b.distribution_lost(s)
        backward = [(b.collection_lost(s), b.distribution_lost(s)) for s in range(50)]
        assert forward == backward

    def test_loss_rate_statistical(self):
        model = BernoulliControlLoss(
            np.random.default_rng(1), p_distribution=0.2
        )
        losses = sum(model.distribution_lost(s) for s in range(20_000))
        assert losses / 20_000 == pytest.approx(0.2, rel=0.1)


class TestGilbertElliottControlLoss:
    def test_invalid_parameters_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="good->bad"):
            GilbertElliottControlLoss(rng, p_good_to_bad=1.5, p_bad_to_good=0.1)
        with pytest.raises(ValueError, match="bad state"):
            GilbertElliottControlLoss(
                rng, p_good_to_bad=0.1, p_bad_to_good=0.1, loss_bad=2.0
            )

    def test_losses_track_bad_state(self):
        model = GilbertElliottControlLoss(
            np.random.default_rng(5),
            p_good_to_bad=0.05,
            p_bad_to_good=0.2,
            loss_good=0.0,
            loss_bad=1.0,
        )
        for s in range(2000):
            lost = model.distribution_lost(s)
            assert lost == (model.state_at(s) == "bad")

    def test_burstiness(self):
        """With sticky bad states, losses cluster: the conditional loss
        probability after a loss far exceeds the marginal rate."""
        model = GilbertElliottControlLoss(
            np.random.default_rng(11),
            p_good_to_bad=0.01,
            p_bad_to_good=0.2,
            loss_bad=1.0,
        )
        lost = [model.distribution_lost(s) for s in range(50_000)]
        marginal = sum(lost) / len(lost)
        after_loss = [b for a, b in zip(lost, lost[1:]) if a]
        conditional = sum(after_loss) / len(after_loss)
        assert conditional > 3 * marginal

    def test_start_bad(self):
        model = GilbertElliottControlLoss(
            np.random.default_rng(0),
            p_good_to_bad=0.0,
            p_bad_to_good=0.0,
            loss_bad=1.0,
            start_bad=True,
        )
        assert model.distribution_lost(0)

    def test_unreachable_bad_state_is_fault_free(self):
        model = GilbertElliottControlLoss(
            np.random.default_rng(0), p_good_to_bad=0.0, p_bad_to_good=0.1
        )
        assert not any(
            model.collection_lost(s) or model.distribution_lost(s)
            for s in range(1000)
        )


class TestTransientNodeFaults:
    def model(self, seed=7, n=4, mttf=100, mttr=20, immortal=(0,)):
        return TransientNodeFaults(
            np.random.default_rng(seed),
            n_nodes=n,
            mttf_slots=mttf,
            mttr_slots=mttr,
            immortal=immortal,
            recovery=RECOVERY,
        )

    def test_immortal_node_never_fails(self):
        model = self.model()
        assert all(model.is_alive(0, s) for s in range(5000))

    def test_mortal_node_fails_and_rejoins(self):
        model = self.model()
        alive = [model.is_alive(1, s) for s in range(5000)]
        assert alive[0]  # starts alive
        assert not all(alive)  # fails at some point
        first_death = alive.index(False)
        assert any(alive[first_death:])  # and comes back

    def test_invalid_parameters_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="MTTF"):
            TransientNodeFaults(rng, n_nodes=4, mttf_slots=0, mttr_slots=1)
        with pytest.raises(ValueError, match="MTTR"):
            TransientNodeFaults(rng, n_nodes=4, mttf_slots=1, mttr_slots=-1)
        with pytest.raises(ValueError, match="outside the ring"):
            TransientNodeFaults(
                rng, n_nodes=4, mttf_slots=1, mttr_slots=1, immortal={9}
            )

    def test_query_order_independent(self):
        a, b = self.model(seed=13), self.model(seed=13)
        forward = [
            [a.is_alive(n, s) for n in range(4)] for s in range(300)
        ]
        # b: query nodes and slots in scrambled order first.
        for s in reversed(range(0, 300, 7)):
            b.is_alive(3, s)
            b.is_alive(1, s)
        backward = [
            [b.is_alive(n, s) for n in range(4)] for s in range(300)
        ]
        assert forward == backward

    def test_uptime_fraction_tracks_mttf_mttr(self):
        model = self.model(seed=2, mttf=200, mttr=50, immortal=())
        horizon = 100_000
        up = sum(model.is_alive(1, s) for s in range(horizon))
        # Expected availability ~ MTTF / (MTTF + MTTR) = 0.8.
        assert up / horizon == pytest.approx(0.8, abs=0.08)


class TestClockGlitchFaults:
    def test_scripted_glitches(self):
        model = ClockGlitchFaults(glitch_slots={3, 8}, recovery=RECOVERY)
        assert model.clock_glitch(3) and model.clock_glitch(8)
        assert not model.clock_glitch(4)

    def test_stochastic_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            ClockGlitchFaults(p_glitch=0.1)

    def test_stochastic_draws_cached(self):
        model = ClockGlitchFaults(
            p_glitch=0.5, rng=np.random.default_rng(0), recovery=RECOVERY
        )
        first = [model.clock_glitch(s) for s in range(100)]
        again = [model.clock_glitch(s) for s in range(100)]
        assert first == again
        assert any(first) and not all(first)

    def test_no_glitches_configured(self):
        model = ClockGlitchFaults()
        assert not any(model.clock_glitch(s) for s in range(100))


class TestCompositeFaultModel:
    def test_alive_is_conjunction_loss_is_disjunction(self):
        outage_a = ScriptedNodeOutages({1: [(10, 20)]})
        outage_b = ScriptedNodeOutages({1: [(30, 40)], 2: [(5, None)]})
        loss = ScriptedFaultModel(control_loss_slots=frozenset({7}))
        model = CompositeFaultModel([outage_a, outage_b, loss])
        assert not model.is_alive(1, 15)  # from a
        assert not model.is_alive(1, 35)  # from b
        assert model.is_alive(1, 25)
        assert not model.is_alive(2, 100)
        assert model.distribution_lost(7) and not model.distribution_lost(8)

    def test_no_short_circuit_keeps_streams_aligned(self):
        """Every component must be queried every slot, so one component's
        answer never perturbs another's random stream."""

        def bernoulli(seed):
            return BernoulliControlLoss(
                np.random.default_rng(seed),
                p_collection=0.4,
                p_distribution=0.4,
            )

        solo = bernoulli(21)
        composed = CompositeFaultModel(
            [
                # An always-lost component in FRONT: with short-circuit
                # evaluation the Bernoulli stream would never advance.
                GilbertElliottControlLoss(
                    np.random.default_rng(0),
                    p_good_to_bad=0.0,
                    p_bad_to_good=0.0,
                    loss_bad=1.0,
                    start_bad=True,
                ),
                bernoulli(21),
            ]
        )
        for s in range(200):
            composed.collection_lost(s)
            composed.distribution_lost(s)
        inner = composed.models[1]
        assert inner._draws == solo_draws(solo, 200)

    def test_recovery_defaults_to_first_component(self):
        first = ScriptedNodeOutages({}, recovery=RecoveryPolicy(timeout_s=9e-6))
        model = CompositeFaultModel([first, ScriptedNodeOutages({})])
        assert model.recovery.timeout_s == 9e-6

    def test_empty_composite_is_fault_free(self):
        model = CompositeFaultModel([])
        assert model.is_alive(0, 0)
        assert not model.collection_lost(0) and not model.distribution_lost(0)
        assert not model.clock_glitch(0)


def solo_draws(model, horizon):
    """Drive a Bernoulli model through ``horizon`` slots, return its cache."""
    for s in range(horizon):
        model.collection_lost(s)
        model.distribution_lost(s)
    return model._draws


class TestFaultConfig:
    def test_inactive_config_builds_nothing(self):
        config = FaultConfig()
        assert not config.any_active()
        assert config.build(4) is None

    def test_build_is_seed_deterministic(self):
        config = FaultConfig(
            node_mttf_slots=300, p_distribution_loss=0.01, seed=5
        )
        a, b = config.build(4), config.build(4)
        timeline_a = [[a.is_alive(n, s) for n in range(4)] for s in range(2000)]
        timeline_b = [[b.is_alive(n, s) for n in range(4)] for s in range(2000)]
        assert timeline_a == timeline_b
        losses_a = [a.distribution_lost(s) for s in range(2000)]
        losses_b = [b.distribution_lost(s) for s in range(2000)]
        assert losses_a == losses_b

    def test_adding_a_source_does_not_perturb_others(self):
        """Sources consume spawned streams positionally, so enabling the
        clock-glitch source leaves the node-fault timeline untouched."""
        base = FaultConfig(node_mttf_slots=300, seed=5)
        extended = FaultConfig(
            node_mttf_slots=300, p_clock_glitch=0.01, seed=5
        )
        a, b = base.build(4), extended.build(4)
        timeline_a = [[a.is_alive(n, s) for n in range(4)] for s in range(2000)]
        timeline_b = [[b.is_alive(n, s) for n in range(4)] for s in range(2000)]
        assert timeline_a == timeline_b

    def test_recovery_policy_propagates(self):
        config = FaultConfig(
            node_mttf_slots=300, timeout_s=7e-6, backoff_factor=3.0
        )
        model = config.build(4)
        assert model.recovery.timeout_s == 7e-6
        assert model.recovery.backoff_factor == 3.0

    def test_immortal_nodes_clipped_to_ring(self):
        config = FaultConfig(
            node_mttf_slots=10,
            node_mttr_slots=10,
            immortal_nodes=frozenset({0, 99}),
        )
        model = config.build(4)
        assert all(model.is_alive(0, s) for s in range(2000))


# --- Property: a live node always recovers the ring (satellite 6) -----------


def _build_sim(n_nodes, faults):
    topology = RingTopology.uniform(n_nodes, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    source = ConnectionSource(
        LogicalRealTimeConnection(
            source=n_nodes - 1,
            destinations=frozenset([0]),
            period_slots=4,
            size_slots=1,
        )
    )
    return Simulation(
        timing, CcrEdfProtocol(topology), sources=[source], faults=faults
    )


HORIZON = 200


class _ScriptedCollectionLoss(FaultModel):
    """Test-only model losing the collection packet at scripted slots."""

    def __init__(self, slots, recovery):
        self.slots = frozenset(slots)
        self.recovery = recovery

    def collection_lost(self, slot):
        return slot in self.slots


@st.composite
def fault_scripts(draw):
    """A random fault script over a small ring that keeps node 0 alive."""
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    slots = st.integers(min_value=0, max_value=HORIZON - 1)
    outages = {}
    for node in range(1, n_nodes):
        intervals = []
        cursor = 0
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if cursor > HORIZON:
                break
            down = draw(st.integers(min_value=cursor, max_value=HORIZON))
            length = draw(st.integers(min_value=1, max_value=60))
            permanent = draw(st.booleans())
            intervals.append((down, None if permanent else down + length))
            if permanent:
                break
            cursor = down + length + 1
        if intervals:
            outages[node] = intervals
    dist_loss = draw(st.sets(slots, max_size=20))
    col_loss = draw(st.sets(slots, max_size=20))
    glitches = draw(st.sets(slots, max_size=20))
    return n_nodes, outages, dist_loss, col_loss, glitches


@given(fault_scripts())
@settings(max_examples=30, deadline=None)
def test_live_node_always_recovers(script):
    """Any fault script that keeps at least one node alive never deadlocks
    the ring: every slot completes and elects a live master."""
    n_nodes, outages, dist_loss, col_loss, glitches = script
    model = CompositeFaultModel(
        [
            ScriptedNodeOutages(outages, recovery=RECOVERY),
            ScriptedFaultModel(
                control_loss_slots=frozenset(dist_loss), recovery=RECOVERY
            ),
            ClockGlitchFaults(glitch_slots=glitches, recovery=RECOVERY),
            _ScriptedCollectionLoss(col_loss, recovery=RECOVERY),
        ],
        recovery=RECOVERY,
    )
    sim = _build_sim(n_nodes, model)
    for _ in range(HORIZON):
        outcome = sim.step()
        # The elected master is alive in the slot it masters.
        assert model.is_alive(outcome.master, outcome.slot)
    report = sim.report
    assert report.slots_simulated == HORIZON
    # Node 0 survives everything, so the network stays available enough
    # to keep electing masters; the run never raised.
    assert math.isfinite(report.wall_time_s)
