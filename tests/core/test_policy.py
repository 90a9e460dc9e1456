"""Tests for the scheduler zoo (pluggable arbitration policies)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.messages import Message
from repro.core.policy import (
    FIFO_AGE_HORIZON_LOG2,
    POLICIES,
    RM_PERIOD_HORIZON_LOG2,
    EdfPolicy,
    FifoPolicy,
    RmPolicy,
    age_priority,
    rate_priority,
    resolve_policy,
)
from repro.core.priorities import TrafficClass, class_priority_range

DEADLINE_CLASSES = [TrafficClass.BEST_EFFORT, TrafficClass.RT_CONNECTION]


def rt_message(period=100, size=2, created=0, deadline=None, conn_id=1):
    if deadline is None:
        deadline = created + period
    return Message(
        source=0,
        destinations=frozenset([1]),
        traffic_class=TrafficClass.RT_CONNECTION,
        size_slots=size,
        created_slot=created,
        deadline_slot=deadline,
        connection_id=conn_id,
        period_slots=period,
    )


class TestResolve:
    def test_none_is_edf(self):
        assert type(resolve_policy(None)) is EdfPolicy

    def test_names_round_trip(self):
        for name in POLICIES:
            assert resolve_policy(name).name == name

    def test_instances_pass_through(self):
        policy = RmPolicy()
        assert resolve_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            resolve_policy("lottery")

    def test_equality_is_by_type(self):
        assert EdfPolicy() == EdfPolicy()
        assert EdfPolicy() != RmPolicy()


class TestEncoders:
    @given(
        st.integers(min_value=1, max_value=2**20),
        st.sampled_from(DEADLINE_CLASSES),
    )
    def test_rate_priority_stays_in_band(self, period, tc):
        lo, hi = class_priority_range(tc)
        assert lo <= rate_priority(period, tc) <= hi

    @given(
        st.integers(min_value=0, max_value=2**20),
        st.sampled_from(DEADLINE_CLASSES),
    )
    def test_age_priority_stays_in_band(self, age, tc):
        lo, hi = class_priority_range(tc)
        assert lo <= age_priority(age, tc) <= hi

    @given(
        st.integers(min_value=1, max_value=2**20),
        st.sampled_from(DEADLINE_CLASSES),
    )
    def test_rate_priority_monotone(self, period, tc):
        # A shorter period never ranks below a longer one.
        assert rate_priority(period, tc) >= rate_priority(period + 1, tc)

    @given(
        st.integers(min_value=0, max_value=2**20),
        st.sampled_from(DEADLINE_CLASSES),
    )
    def test_age_priority_monotone(self, age, tc):
        # An older message never ranks below a younger one.
        assert age_priority(age + 1, tc) >= age_priority(age, tc)

    def test_horizons_equal_band_width(self):
        for tc in DEADLINE_CLASSES:
            lo, hi = class_priority_range(tc)
            assert RM_PERIOD_HORIZON_LOG2 == hi - lo
            assert FIFO_AGE_HORIZON_LOG2 == hi - lo

    def test_rm_ranks_by_rate(self):
        tc = TrafficClass.RT_CONNECTION
        fast = rate_priority(10, tc)
        slow = rate_priority(500, tc)
        assert fast > slow


class TestPolicyKeys:
    def test_edf_orders_by_deadline(self):
        p = EdfPolicy()
        early = rt_message(deadline=50, period=100)
        late = rt_message(deadline=80, period=100)
        assert p.queue_key(early) < p.queue_key(late)

    def test_rm_orders_by_period(self):
        p = RmPolicy()
        fast = rt_message(period=50, deadline=50)
        slow = rt_message(period=400, deadline=400)
        assert p.queue_key(fast) < p.queue_key(slow)

    def test_rm_falls_back_to_relative_deadline(self):
        # Aperiodic deadline traffic ranks deadline-monotonically.
        p = RmPolicy()
        msg = Message(
            source=0,
            destinations=frozenset([1]),
            traffic_class=TrafficClass.BEST_EFFORT,
            size_slots=1,
            created_slot=10,
            deadline_slot=70,
        )
        assert p.queue_key(msg) == 60

    def test_fifo_orders_by_release(self):
        p = FifoPolicy()
        old = rt_message(created=0, deadline=500)
        new = rt_message(created=100, deadline=200)
        assert p.queue_key(old) < p.queue_key(new)

    def test_rm_token_is_static(self):
        p = RmPolicy()
        msg = rt_message(period=100)
        assert p.cache_token(msg, 0) == p.cache_token(msg, 99)

    def test_fifo_token_is_age(self):
        p = FifoPolicy()
        msg = rt_message(created=10, period=100)
        assert p.cache_token(msg, 15) == 5


class TestProtocolIntegration:
    def _run(self, policy, **config_kwargs):
        from repro.sim.runner import ScenarioConfig, run_scenario
        from repro.traffic.industrial import ama_andam_sensor_suite

        config = ScenarioConfig(
            n_nodes=5,
            policy=policy,
            spatial_reuse=False,
            connections=tuple(ama_andam_sensor_suite(n_nodes=5)),
            **config_kwargs,
        )
        return run_scenario(config, n_slots=3000)

    def test_all_policies_run(self):
        for policy in POLICIES:
            report = self._run(policy)
            assert report.slots_simulated == 3000
            rt = report.class_stats(TrafficClass.RT_CONNECTION)
            assert rt.delivered > 0

    def test_unknown_policy_rejected_by_config(self):
        from repro.sim.runner import ScenarioConfig

        with pytest.raises(ValueError, match="unknown policy"):
            ScenarioConfig(n_nodes=4, policy="lottery")

    def test_non_edf_policy_rejected_on_fixed_priority_protocols(self):
        from repro.sim.runner import ScenarioConfig, run_scenario

        for protocol in ("ccfpr", "tdma"):
            config = ScenarioConfig(n_nodes=4, protocol=protocol, policy="rm")
            with pytest.raises(ValueError, match="requires a TCMA"):
                run_scenario(config, n_slots=10)

    def test_policy_accepted_on_upper_edf(self):
        from repro.sim.runner import ScenarioConfig, run_scenario

        config = ScenarioConfig(n_nodes=4, protocol="upper-edf", policy="rm")
        report = run_scenario(config, n_slots=50)
        assert report.slots_simulated == 50

    def test_run_options_policy_overrides_config(self):
        from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation

        config = ScenarioConfig(n_nodes=4, policy="edf")
        sim = build_simulation(config, RunOptions(policy="fifo"))
        assert type(sim.protocol.policy) is FifoPolicy

    def test_default_protocol_policy_is_edf(self):
        from repro.core.protocol import CcrEdfProtocol
        from repro.ring.topology import RingTopology

        protocol = CcrEdfProtocol(topology=RingTopology.uniform(4, 10.0))
        assert type(protocol.policy) is EdfPolicy
        # EDF uses the native deadline-ordered queues (no policy hook).
        assert protocol.queue_policy is None

    def test_custom_policy_instance_injected(self):
        class DeadlinePlusOne(EdfPolicy):
            name = "custom"

        from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation

        config = ScenarioConfig(n_nodes=4)
        sim = build_simulation(config, RunOptions(policy=DeadlinePlusOne()))
        assert sim.protocol.policy.name == "custom"


class TestQueueOrdering:
    def test_queues_follow_policy_order(self):
        from repro.core.queues import NodeQueues

        q = NodeQueues(0, policy=RmPolicy())
        slow = rt_message(period=400, deadline=100)
        fast = rt_message(period=50, deadline=300)
        q.enqueue(slow)
        q.enqueue(fast)
        # RM serves the faster-rate message despite its later deadline.
        assert q.head_of_class(TrafficClass.RT_CONNECTION) is fast

    def test_default_queue_is_edf_ordered(self):
        from repro.core.queues import NodeQueues

        q = NodeQueues(0)
        late = rt_message(period=50, deadline=300)
        early = rt_message(period=400, deadline=100)
        q.enqueue(late)
        q.enqueue(early)
        assert q.head_of_class(TrafficClass.RT_CONNECTION) is early


class TestMessagePeriods:
    def test_connection_release_stamps_period(self):
        from repro.core.connection import LogicalRealTimeConnection

        conn = LogicalRealTimeConnection(
            source=0,
            destinations=frozenset([1]),
            period_slots=40,
            size_slots=2,
        )
        msg = conn.release_message(0)
        assert msg.period_slots == 40

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError, match="release period"):
            rt_message(period=0, deadline=100)


def test_policies_are_deterministic_per_seed():
    """Same seed, same policy -> byte-identical reports."""
    from repro.sim.runner import ScenarioConfig, run_scenario
    from repro.traffic.sweeps import random_workload

    for policy in POLICIES:
        rng = np.random.default_rng(3)
        conns = random_workload(rng, 6, 8, 0.8, profile="industrial")
        config = ScenarioConfig(
            n_nodes=6, policy=policy, connections=tuple(conns)
        )
        reports = [run_scenario(config, n_slots=2000) for _ in range(2)]
        assert reports[0] == reports[1]

    # The workload draw itself is deterministic in the seed.
    draws = [
        random_workload(np.random.default_rng(3), 6, 8, 0.8, profile="industrial")
        for _ in range(2)
    ]
    assert [
        (c.source, c.destinations, c.period_slots, c.size_slots, c.deadline_slots)
        for c in draws[0]
    ] == [
        (c.source, c.destinations, c.period_slots, c.size_slots, c.deadline_slots)
        for c in draws[1]
    ]


class _NoMemo(dict):
    """A priority memo that never remembers: every lookup recomputes."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


class TestFifoMemoBound:
    """On an overloaded FIFO ring the head ages grow without bound; the
    protocol's priority memo must not (one entry per saturated age)."""

    @staticmethod
    def _config():
        from repro.sim.runner import ScenarioConfig
        from repro.traffic.periodic import random_connection_set
        from repro.traffic.sweeps import scale_connections_to_utilisation

        rng = np.random.default_rng(3)
        conns = scale_connections_to_utilisation(
            random_connection_set(rng, 4, 6, 0.5, period_range=(5, 40)), 1.5
        )
        return ScenarioConfig(
            n_nodes=4,
            connections=tuple(conns),
            spatial_reuse=False,
            policy="fifo",
        )

    @staticmethod
    def _sizes(sim):
        sizes = {}
        for _, traffic_class in sim.protocol._prio_cache:
            sizes[traffic_class] = sizes.get(traffic_class, 0) + 1
        return sizes

    def test_memo_saturates_and_matches_the_unmemoised_run(self):
        from repro.sim.runner import RunOptions, build_simulation

        config = self._config()
        sim = build_simulation(config, RunOptions(engine="python"))
        sim.run(40_000)
        early = self._sizes(sim)
        # The ring is overloaded far past the age horizon by now.
        assert early == {TrafficClass.RT_CONNECTION: 2**FIFO_AGE_HORIZON_LOG2}

        bare = build_simulation(config, RunOptions(engine="python"))
        bare.protocol._prio_cache = _NoMemo()
        assert bare.run(40_000) == sim.report

        sim.run(120_000)
        assert self._sizes(sim) == early


class TestEdfSpellings:
    """``CcrEdfProtocol._compose`` inlines the EDF branch instead of
    calling ``EdfPolicy.cache_token`` / ``request_priority``; the two
    spellings must agree, late heads included (the inlined branch keys
    every laxity < 0 as -1, which is one priority level by the
    ``priority_for`` contract)."""

    @pytest.mark.parametrize("traffic_class", DEADLINE_CLASSES)
    def test_inlined_branch_equals_edf_policy(self, traffic_class):
        from repro.core.protocol import CcrEdfProtocol
        from repro.core.queues import NodeQueues
        from repro.ring.topology import RingTopology

        protocol = CcrEdfProtocol(topology=RingTopology.uniform(4, 10.0))
        policy = EdfPolicy()
        assert protocol._edf_policy and type(protocol.policy) is EdfPolicy
        slot = 1_000
        late_priorities = set()
        # Laxities from well past the deadline to beyond the widest level.
        for laxity in [*range(-40, 70), 100, 255, 256, 1_000, 50_000]:
            msg = Message(
                source=0,
                destinations=frozenset([2]),
                traffic_class=traffic_class,
                size_slots=3,
                created_slot=0,
                deadline_slot=slot + laxity + 3 - 1,
                connection_id=7 if traffic_class is TrafficClass.RT_CONNECTION else None,
            )
            assert msg.laxity(slot) == laxity
            queues = NodeQueues(0)
            queues.enqueue(msg)
            protocol._prio_cache.clear()
            head, priority, request, _ = protocol._compose(queues, slot)
            assert head is msg and request.priority == priority
            assert priority == policy.request_priority(
                msg, slot, protocol.mapping, traffic_class
            )
            token = policy.cache_token(msg, slot)
            assert token == laxity
            [key] = protocol._prio_cache
            assert key == (max(token, -1), traffic_class)
            if laxity < 0:
                late_priorities.add(priority)
        assert len(late_priorities) == 1
