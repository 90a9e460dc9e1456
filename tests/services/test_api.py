"""Tests for the messaging API and connection-management client."""

import pytest

from repro.core.admission import AdmissionController
from repro.core.connection import LogicalRealTimeConnection
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.services.api import ConnectionClient, MessageInjector
from repro.sim.engine import Simulation


def build(n=4):
    topology = RingTopology.uniform(n, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    injectors = {i: MessageInjector(i) for i in range(n)}
    sim = Simulation(
        timing, CcrEdfProtocol(topology), sources=list(injectors.values())
    )
    return sim, injectors, timing


class TestMessageInjector:
    def test_submission_released_next_slot(self):
        sim, injectors, _ = build()
        sub = injectors[0].submit([2], relative_deadline_slots=20)
        assert sub.message is None
        sim.step()
        assert sub.message is not None
        assert sub.message.created_slot == 0

    def test_delivery_flag(self):
        sim, injectors, _ = build()
        sub = injectors[0].submit([2], relative_deadline_slots=20)
        for _ in range(5):
            sim.step()
        assert sub.delivered

    def test_best_effort_needs_deadline(self):
        _, injectors, _ = build()
        with pytest.raises(ValueError, match="deadline"):
            injectors[0].submit([2])

    def test_nrt_must_not_have_deadline(self):
        _, injectors, _ = build()
        with pytest.raises(ValueError, match="no deadline"):
            injectors[0].submit(
                [2],
                traffic_class=TrafficClass.NON_REAL_TIME,
                relative_deadline_slots=10,
            )

    def test_rt_class_rejected(self):
        _, injectors, _ = build()
        with pytest.raises(ValueError, match="admitted connections"):
            injectors[0].submit(
                [2],
                traffic_class=TrafficClass.RT_CONNECTION,
                relative_deadline_slots=10,
            )

    def test_multiple_submissions_same_slot(self):
        sim, injectors, _ = build()
        subs = [injectors[0].submit([2], relative_deadline_slots=50) for _ in range(3)]
        sim.step()
        assert all(s.message is not None for s in subs)

    def test_nrt_submission(self):
        sim, injectors, _ = build()
        sub = injectors[1].submit([3], traffic_class=TrafficClass.NON_REAL_TIME)
        for _ in range(5):
            sim.step()
        assert sub.delivered
        assert sub.message.deadline_slot is None


class TestConnectionClient:
    def make_client(self, admission_node=0):
        sim, injectors, timing = build()
        controller = AdmissionController(timing)
        client = ConnectionClient(sim, controller, admission_node, injectors)
        return sim, client, controller

    def conn(self, source=1, dst=3, period=10, size=1):
        return LogicalRealTimeConnection(
            source=source,
            destinations=frozenset([dst]),
            period_slots=period,
            size_slots=size,
        )

    def test_open_accepted_connection_starts_traffic(self):
        sim, client, controller = self.make_client()
        result = client.open_lrtc(self.conn())
        decision, cost = result.decision, result.slots_used
        assert decision.accepted
        assert cost > 0  # signalling consumed real slots
        start = sim.report.class_stats(TrafficClass.RT_CONNECTION).released
        sim.run(100)
        released = sim.report.class_stats(TrafficClass.RT_CONNECTION).released
        assert released - start >= 9

    def test_rejected_connection_never_activates(self):
        sim, client, controller = self.make_client()
        big = self.conn(period=10, size=10)  # U = 1.0 > U_max
        decision = client.open_lrtc(big).decision
        assert not decision.accepted
        sim.run(100)
        assert sim.report.class_stats(TrafficClass.RT_CONNECTION).released == 0

    def test_open_from_admission_node_is_free(self):
        sim, client, _ = self.make_client(admission_node=1)
        result = client.open_lrtc(self.conn(source=1))
        decision, cost = result.decision, result.slots_used
        assert decision.accepted
        assert cost == 0

    def test_close_stops_traffic_and_frees_capacity(self):
        sim, client, controller = self.make_client()
        c = self.conn()
        client.open_lrtc(c)
        sim.run(50)
        before = sim.report.class_stats(TrafficClass.RT_CONNECTION).released
        client.close_lrtc(c.connection_id)
        sim.run(100)
        after = sim.report.class_stats(TrafficClass.RT_CONNECTION).released
        assert after == before  # nothing released after tear-down
        assert controller.utilisation == 0.0

    def test_signalling_uses_best_effort(self):
        sim, client, _ = self.make_client()
        client.open_lrtc(self.conn())
        be = sim.report.class_stats(TrafficClass.BEST_EFFORT)
        assert be.delivered >= 2  # request + reply

    def test_invalid_admission_node_rejected(self):
        sim, injectors, timing = build()
        controller = AdmissionController(timing)
        with pytest.raises(ValueError, match="admission node"):
            ConnectionClient(sim, controller, 9, injectors)

    def test_capacity_respected_across_opens(self):
        sim, client, controller = self.make_client()
        decisions = []
        for i in range(6):
            c = self.conn(source=1, dst=3, period=10, size=2)  # U = 0.2 each
            decisions.append(client.open_lrtc(c).decision)
        accepted = sum(1 for d in decisions if d.accepted)
        # U_max ~0.88 admits 4 connections of 0.2.
        assert accepted == 4
        assert controller.utilisation <= controller.u_max


class TestSignallingSymmetry:
    """Open and close run the same 2-message round-trip (Section 6)."""

    def make_client(self, admission_node=0):
        sim, injectors, timing = build()
        controller = AdmissionController(timing)
        client = ConnectionClient(sim, controller, admission_node, injectors)
        return sim, client, controller

    def conn(self, source=1, dst=3, period=10, size=1):
        return LogicalRealTimeConnection(
            source=source,
            destinations=frozenset([dst]),
            period_slots=period,
            size_slots=size,
        )

    def test_close_accounts_reply_leg(self):
        """Regression: close once counted only the request leg, despite
        the documented 2-best-effort-message dialogue."""
        sim, client, _ = self.make_client()
        c = self.conn()
        opened = client.open_lrtc(c)
        be_after_open = sim.report.class_stats(
            TrafficClass.BEST_EFFORT
        ).delivered
        closed = client.close_lrtc(c.connection_id)
        be_after_close = sim.report.class_stats(
            TrafficClass.BEST_EFFORT
        ).delivered
        # Same dialogue shape on both sides: one round-trip each, and
        # exactly two best-effort deliveries per dialogue.
        assert opened.round_trips == closed.round_trips == 1
        assert opened.messages_sent == closed.messages_sent == 2
        assert be_after_open == 2
        assert be_after_close == 4
        # The reply leg costs real slots, so close cannot be cheaper
        # than a single leg; both directions traverse the same ring.
        assert closed.slots_used > 0
        assert closed.decision is None and closed.accepted

    def test_open_close_cost_parity(self):
        """With an otherwise idle ring the two dialogues cost within a
        couple of slots of each other (phases differ slightly)."""
        sim, client, _ = self.make_client()
        c = self.conn()
        opened = client.open_lrtc(c)
        closed = client.close_lrtc(c.connection_id)
        assert abs(opened.slots_used - closed.slots_used) <= 4

    def test_local_dialogues_are_free_both_ways(self):
        sim, client, _ = self.make_client(admission_node=1)
        c = self.conn(source=1)
        opened = client.open_lrtc(c)
        closed = client.close_lrtc(c.connection_id)
        assert opened.slots_used == closed.slots_used == 0
        assert opened.round_trips == closed.round_trips == 0


class TestDeprecatedClientShims:
    """Every deprecated spelling is gone; ``open_lrtc``/``close_lrtc``
    is the whole signalling surface."""

    def test_pre11_tuple_shims_removed(self):
        sim, injectors, timing = build()
        client = ConnectionClient(sim, AdmissionController(timing), 0, injectors)
        assert not hasattr(client, "open")
        assert not hasattr(client, "close")

    def test_no_legacy_spelling_on_the_class(self):
        for name in ("open", "close", "open_connection", "close_connection"):
            assert not hasattr(ConnectionClient, name), name
