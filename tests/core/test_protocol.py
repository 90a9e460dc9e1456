"""Tests for the CCR-EDF per-slot protocol state machine."""

import numpy as np
import pytest

from repro.core.arbitration import Arbiter, ArbitrationResult, Grant
from repro.core.clocking import RoundRobinHandover
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import (
    PRIO_NON_REAL_TIME,
    RT_CONNECTION_RANGE,
    TrafficClass,
)
from repro.core.protocol import CcrEdfProtocol
from repro.core.queues import NodeQueues
from repro.ring.topology import RingTopology
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation


def queues_for(n):
    return {i: NodeQueues(i) for i in range(n)}


def rt_msg(node, dst, deadline, size=1, created=0):
    return Message(
        source=node,
        destinations=frozenset([dst]),
        traffic_class=TrafficClass.RT_CONNECTION,
        size_slots=size,
        created_slot=created,
        deadline_slot=deadline,
        connection_id=0,
    )


def nrt_msg(node, dst):
    return Message(
        source=node,
        destinations=frozenset([dst]),
        traffic_class=TrafficClass.NON_REAL_TIME,
        size_slots=1,
        created_slot=0,
    )


@pytest.fixture
def ring():
    return RingTopology.uniform(4)


@pytest.fixture
def protocol(ring):
    return CcrEdfProtocol(ring)


class TestComposeRequest:
    def test_empty_queue_yields_empty_request(self, protocol):
        req, msg = protocol.compose_request(NodeQueues(0), current_slot=0)
        assert req.is_empty
        assert msg is None

    def test_rt_message_priority_in_rt_band(self, protocol):
        q = queues_for(4)
        q[0].enqueue(rt_msg(0, 2, deadline=5))
        req, msg = protocol.compose_request(q[0], current_slot=0)
        lo, hi = RT_CONNECTION_RANGE
        assert lo <= req.priority <= hi
        assert msg is not None

    def test_nrt_priority_is_1(self, protocol):
        q = queues_for(4)
        q[1].enqueue(nrt_msg(1, 3))
        req, _ = protocol.compose_request(q[1], current_slot=0)
        assert req.priority == PRIO_NON_REAL_TIME

    def test_request_links_follow_path(self, protocol):
        q = queues_for(4)
        q[1].enqueue(rt_msg(1, 3, deadline=10))
        req, _ = protocol.compose_request(q[1], current_slot=0)
        # 1 -> 3 uses links 1 and 2.
        assert req.links == 0b0110
        assert req.destinations == 0b1000

    def test_route_masks_are_shared_per_ring(self):
        """Fresh protocols on equal topologies share one route memo, so a
        new run does not recompute the paths of its connections."""
        segments = RingTopology.uniform(5, 10.0).segments
        first = CcrEdfProtocol(topology=RingTopology(5, segments))
        masks = first.route_masks(1, frozenset({3}))
        second = CcrEdfProtocol(topology=RingTopology(5, segments))
        assert second._route_cache is first._route_cache
        assert second._route_cache[(1, frozenset({3}))] is masks
        other = CcrEdfProtocol(topology=RingTopology.uniform(6, 10.0))
        assert other._route_cache is not first._route_cache

    def test_tighter_deadline_higher_priority(self, protocol):
        q_tight = NodeQueues(0)
        q_tight.enqueue(rt_msg(0, 2, deadline=0))
        q_loose = NodeQueues(0)
        q_loose.enqueue(rt_msg(0, 2, deadline=1000))
        tight, _ = protocol.compose_request(q_tight, current_slot=0)
        loose, _ = protocol.compose_request(q_loose, current_slot=0)
        assert tight.priority > loose.priority


class TestPlanSlot:
    def test_idle_network_master_keeps_clock(self, protocol):
        plan = protocol.plan_slot(0, current_master=2, queues_by_node=queues_for(4))
        assert plan.master == 2
        assert plan.gap_s == 0.0
        assert plan.transmissions == ()
        assert plan.n_requests == 0

    def test_hp_node_becomes_master(self, protocol):
        q = queues_for(4)
        q[3].enqueue(rt_msg(3, 1, deadline=5))
        q[1].enqueue(rt_msg(1, 2, deadline=500))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert plan.master == 3
        assert plan.gap_s > 0.0

    def test_transmissions_bound_to_messages(self, protocol):
        q = queues_for(4)
        msg = rt_msg(0, 2, deadline=10)
        q[0].enqueue(msg)
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert len(plan.transmissions) == 1
        assert plan.transmissions[0].message is msg
        assert plan.transmissions[0].node == 0

    def test_plan_is_for_next_slot(self, protocol):
        plan = protocol.plan_slot(7, current_master=0, queues_by_node=queues_for(4))
        assert plan.transmit_slot == 8

    def test_missing_queue_rejected(self, protocol):
        q = queues_for(4)
        del q[2]
        with pytest.raises(ValueError, match="must cover exactly"):
            protocol.plan_slot(0, current_master=0, queues_by_node=q)

    def test_round_robin_handover_variant(self, ring):
        protocol = CcrEdfProtocol(ring, handover=RoundRobinHandover())
        q = queues_for(4)
        q[3].enqueue(rt_msg(3, 1, deadline=5))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        # Master moves downstream regardless of where the hp message is.
        assert plan.master == 1

    def test_round_robin_denies_break_crossers(self, ring):
        protocol = CcrEdfProtocol(ring, handover=RoundRobinHandover())
        q = queues_for(4)
        # 0 -> 2 uses links 0, 1; next master is 1, break at link 0.
        q[0].enqueue(rt_msg(0, 2, deadline=5))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert plan.transmissions == ()
        assert len(plan.denied_by_break) == 1
        assert plan.denied_by_break[0].node == 0

    def test_edf_handover_never_denies_hp(self, protocol):
        # Same scenario as above but with EDF hand-over: node 0 becomes
        # master itself, so its message is feasible.
        q = queues_for(4)
        q[0].enqueue(rt_msg(0, 2, deadline=5))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert plan.master == 0
        assert len(plan.transmissions) == 1

    def test_trace_packets_populated_on_demand(self, ring):
        protocol = CcrEdfProtocol(ring, trace_packets=True)
        q = queues_for(4)
        q[0].enqueue(rt_msg(0, 2, deadline=5))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert plan.collection_packet is not None
        assert plan.distribution_packet is not None
        # Wire round trip of the traced packets.
        bits = plan.collection_packet.serialize()
        assert len(bits) == plan.collection_packet.length_bits

    def test_trace_packets_off_by_default(self, protocol):
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=queues_for(4))
        assert plan.collection_packet is None
        assert plan.distribution_packet is None


def loaded_config(utilisation=0.8, **config):
    """An N = 8 ring with 16 connections at ``utilisation``."""
    rng = np.random.default_rng(1)
    conns = scale_connections_to_utilisation(
        random_connection_set(rng, 8, 16, 0.5, period_range=(10, 100)),
        utilisation,
    )
    return ScenarioConfig(n_nodes=8, connections=tuple(conns), **config)


def loaded_sim(utilisation=0.8, trace_packets=False, config=None, **kwargs):
    """:func:`loaded_config` built on the oracle."""
    sim = build_simulation(
        config or loaded_config(utilisation, **kwargs),
        RunOptions(engine="python"),
    )
    if trace_packets:
        sim.protocol.trace_packets = True
    return sim


class TestRecordFreeArbitration:
    def test_untraced_run_builds_no_arbitration_records(self, monkeypatch):
        built = []
        for cls in (ArbitrationResult, Grant):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        report = loaded_sim().run(2_000)
        assert report.packets_sent > 1_000
        assert built == []

    def test_traced_plans_carry_the_arbitration(self):
        sim = loaded_sim(trace_packets=True)
        arbitrated = 0
        for _ in range(500):
            sim.step()
            plan = sim.pending_plan
            assert plan.arbitration is not None
            assert plan.arbitration.hp_node == plan.master
            assert [g.node for g in plan.arbitration.grants] == [
                tx.node for tx in plan.transmissions
            ]
            arbitrated += plan.n_requests > 0
        assert arbitrated > 100

    def test_planned_transmissions_match_the_queue_heads(self):
        """Cached planned transmissions are the head's, links included."""
        sim = loaded_sim()
        protocol = sim.protocol
        checked = 0
        for _ in range(2_000):
            sim.step()
            plan = sim.pending_plan
            for tx in (*plan.transmissions, *plan.denied_by_break):
                msg = sim.queues[tx.node].head()
                assert tx.message is msg
                assert tx.destinations == msg.destinations
                assert tx.links == protocol.route_masks(
                    msg.source, msg.destinations
                )[0]
                checked += 1
        assert checked > 1_000

    def test_multi_slot_grants_share_one_planned_transmission(self, protocol):
        q = queues_for(4)
        q[0].enqueue(rt_msg(0, 2, deadline=50, size=3))
        plans = []
        master = 0
        for slot in range(3):
            plan = protocol.plan_slot(slot, master, q)
            protocol.execute_plan(plan)
            plans.append(plan)
            master = plan.master
        first = plans[0].transmissions[0]
        assert all(p.transmissions[0] is first for p in plans)
        assert first.message.status is MessageStatus.DELIVERED

    def test_unwasted_transmissions_are_handed_on_as_is(self, protocol):
        q = queues_for(4)
        q[0].enqueue(rt_msg(0, 2, deadline=10, size=2))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        outcome = protocol.execute_plan(plan)
        assert outcome.transmitted is plan.transmissions
        assert outcome.wasted == ()


class TestPriorityCache:
    def test_late_laxities_share_one_entry(self):
        """On an overloaded ring late heads pile up; their laxity is new
        every slot, yet the priority memo stays bounded."""
        sim = loaded_sim(1.05, spatial_reuse=False)
        sim.run(10_000)
        size = len(sim.protocol._prio_cache)
        assert sim.report.class_stats(TrafficClass.RT_CONNECTION).deadline_missed
        sim.run(30_000)
        assert len(sim.protocol._prio_cache) == size
        # Laxities run from -1 up to the largest relative deadline.
        assert size <= 100 + 2

    def test_folding_leaves_the_report_unchanged(self):
        class NoMemo(dict):
            def get(self, key, default=None):
                return default

            def __setitem__(self, key, value):
                pass

        config = loaded_config(1.05, spatial_reuse=False)
        memo = loaded_sim(config=config)
        plain = loaded_sim(config=config)
        plain.protocol._prio_cache = NoMemo()
        assert memo.run(5_000) == plain.run(5_000)


class TestExecutePlan:
    def test_transmission_advances_message(self, protocol):
        q = queues_for(4)
        msg = rt_msg(0, 2, deadline=10, size=2)
        q[0].enqueue(msg)
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        outcome = protocol.execute_plan(plan)
        assert len(outcome.transmitted) == 1
        assert msg.sent_slots == 1
        assert msg.status is MessageStatus.IN_TRANSIT

    def test_single_slot_message_delivered(self, protocol):
        q = queues_for(4)
        msg = rt_msg(0, 2, deadline=10)
        q[0].enqueue(msg)
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        protocol.execute_plan(plan)
        assert msg.status is MessageStatus.DELIVERED
        assert msg.completed_slot == 1  # transmitted in slot 1

    def test_dropped_message_wastes_grant(self, protocol):
        q = queues_for(4)
        msg = rt_msg(0, 2, deadline=10)
        q[0].enqueue(msg)
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        msg.drop()  # dropped between arbitration and transmission
        outcome = protocol.execute_plan(plan)
        assert outcome.transmitted == ()
        assert len(outcome.wasted) == 1


class TestPipelineSemantics:
    def test_arbitration_lags_one_slot(self, protocol):
        """Figure 3: a message queued during slot k transmits in k+1 at
        the earliest."""
        q = queues_for(4)
        msg = rt_msg(0, 2, deadline=10)
        # Plan for slot 1 computed during slot 0 with empty queues: the
        # message arrives "during slot 1".
        plan1 = protocol.plan_slot(0, current_master=0, queues_by_node=q)
        assert plan1.transmissions == ()
        q[0].enqueue(msg)
        outcome1 = protocol.execute_plan(plan1)
        assert outcome1.transmitted == ()
        # Arbitration during slot 1 sees it; it transmits in slot 2.
        plan2 = protocol.plan_slot(1, current_master=plan1.master, queues_by_node=q)
        assert len(plan2.transmissions) == 1
        protocol.execute_plan(plan2)
        assert msg.completed_slot == 2
