"""Tests for the online centralised admission control (Section 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.admission import AdmissionController
from repro.core.connection import LogicalRealTimeConnection
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology


def controller(n=8):
    timing = NetworkTiming(
        topology=RingTopology.uniform(n, 10.0), link=FibreRibbonLink()
    )
    return AdmissionController(timing)


def conn(period, size, source=0, dst=1):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
    )


class TestAdmissionTest:
    def test_feasible_connection_accepted(self):
        ctrl = controller()
        decision = ctrl.request(conn(10, 1))
        assert decision.accepted
        assert ctrl.is_admitted(decision.connection.connection_id)
        assert ctrl.utilisation == pytest.approx(0.1)

    def test_overload_rejected(self):
        ctrl = controller()
        # U_max < 1; ask for 0.6 + 0.6.
        first = ctrl.request(conn(10, 6))
        second = ctrl.request(conn(10, 6))
        assert first.accepted
        assert not second.accepted
        # The rejected connection is NOT in Ma.
        assert not ctrl.is_admitted(second.connection.connection_id)
        assert ctrl.utilisation == pytest.approx(0.6)

    def test_decision_reports_utilisations(self):
        ctrl = controller()
        ctrl.request(conn(10, 2))
        d = ctrl.request(conn(10, 3))
        assert d.utilisation_before == pytest.approx(0.2)
        assert d.utilisation_with == pytest.approx(0.5)
        assert d.u_max == ctrl.u_max

    def test_headroom_after_accept(self):
        ctrl = controller()
        d = ctrl.request(conn(10, 2))
        assert d.headroom == pytest.approx(ctrl.u_max - 0.2)

    def test_headroom_after_reject_unchanged(self):
        ctrl = controller()
        ctrl.request(conn(10, 6))
        d = ctrl.request(conn(10, 6))
        assert not d.accepted
        assert d.headroom == pytest.approx(ctrl.u_max - 0.6)

    def test_boundary_admission_exactly_at_umax(self):
        ctrl = controller()
        u_max = ctrl.u_max
        period = 10_000
        size = int(u_max * period)  # just below or at the bound
        assert ctrl.request(conn(period, size)).accepted
        # One more slot of demand must tip it over.
        assert not ctrl.request(conn(period, 1)).accepted or (
            ctrl.utilisation + 1 / period <= u_max
        )


class TestRuntimeChanges:
    def test_remove_frees_capacity(self):
        ctrl = controller()
        d1 = ctrl.request(conn(10, 6))
        d2 = ctrl.request(conn(10, 6))
        assert d1.accepted and not d2.accepted
        ctrl.remove(d1.connection.connection_id)
        assert ctrl.utilisation == 0.0
        d3 = ctrl.request(conn(10, 6))
        assert d3.accepted

    def test_remove_returns_the_connection(self):
        ctrl = controller()
        c = conn(10, 1)
        ctrl.request(c)
        assert ctrl.remove(c.connection_id) is c

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError, match="not in the accepted set"):
            controller().remove(999_999)

    def test_duplicate_admission_rejected(self):
        ctrl = controller()
        c = conn(10, 1)
        ctrl.request(c)
        with pytest.raises(ValueError, match="already admitted"):
            ctrl.request(c)

    def test_len_tracks_accepted_set(self):
        ctrl = controller()
        assert len(ctrl) == 0
        ctrl.request(conn(10, 1))
        ctrl.request(conn(20, 1))
        assert len(ctrl) == 2

    def test_accepted_connections_snapshot(self):
        ctrl = controller()
        c1, c2 = conn(10, 1), conn(20, 1)
        ctrl.request(c1)
        ctrl.request(c2)
        assert set(ctrl.accepted_connections) == {c1, c2}


class TestSuspendResume:
    def test_suspend_reclaims_utilisation(self):
        ctrl = controller()
        d = ctrl.request(conn(10, 2))
        cid = d.connection.connection_id
        ctrl.suspend(cid)
        assert ctrl.utilisation == 0.0
        assert not ctrl.is_admitted(cid)
        assert ctrl.is_suspended(cid)

    def test_resume_readmits(self):
        ctrl = controller()
        d = ctrl.request(conn(10, 2))
        cid = d.connection.connection_id
        ctrl.suspend(cid)
        decision = ctrl.resume(cid)
        assert decision.accepted
        assert ctrl.is_admitted(cid)
        assert not ctrl.is_suspended(cid)
        assert ctrl.utilisation == pytest.approx(0.2)

    def test_resume_reruns_the_admission_test(self):
        ctrl = controller()
        d = ctrl.request(conn(10, 6))
        cid = d.connection.connection_id
        ctrl.suspend(cid)
        # Capacity is snatched while the connection is down.
        ctrl.request(conn(10, 6))
        decision = ctrl.resume(cid)
        assert not decision.accepted
        # The connection stays suspended, ready for a later retry.
        assert ctrl.is_suspended(cid)
        assert ctrl.utilisation == pytest.approx(0.6)

    def test_suspend_unknown_raises(self):
        with pytest.raises(KeyError, match="not in the accepted set"):
            controller().suspend(999_999)

    def test_suspended_id_cannot_be_readmitted_directly(self):
        ctrl = controller()
        c = conn(10, 1)
        ctrl.request(c)
        ctrl.suspend(c.connection_id)
        with pytest.raises(ValueError, match="already admitted"):
            ctrl.request(c)

    def test_remove_while_suspended(self):
        ctrl = controller()
        c = conn(10, 1)
        ctrl.request(c)
        ctrl.suspend(c.connection_id)
        assert ctrl.remove(c.connection_id) is c
        assert not ctrl.is_suspended(c.connection_id)

    def test_node_granularity(self):
        ctrl = controller()
        a = ctrl.request(conn(10, 1, source=3)).connection
        b = ctrl.request(conn(10, 2, source=3)).connection
        other = ctrl.request(conn(10, 1, source=2)).connection
        suspended = ctrl.suspend_node(3)
        assert set(suspended) == {a.connection_id, b.connection_id}
        assert ctrl.utilisation == pytest.approx(0.1)
        assert ctrl.is_admitted(other.connection_id)
        decisions = ctrl.resume_node(3)
        assert all(d.accepted for d in decisions)
        assert ctrl.utilisation == pytest.approx(0.4)


class TestInvariant:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100),
                st.integers(min_value=1, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_accepted_set_never_exceeds_umax(self, specs):
        """The defining invariant: U(Ma) <= U_max after any sequence."""
        ctrl = controller()
        for period, size in specs:
            size = min(size, period)
            ctrl.request(conn(period, size))
        assert ctrl.utilisation <= ctrl.u_max + 1e-12


class TestUtilisationCache:
    """The cached ``utilisation`` must be the float a fresh re-sum gives."""

    @staticmethod
    def resum(ctrl):
        return sum(c.utilisation for c in ctrl.accepted_connections)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["open", "close", "suspend", "resume"]),
                st.integers(min_value=0, max_value=2**16),
                st.integers(min_value=3, max_value=97),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_storm_is_bit_equal_to_a_fresh_resum(self, ops):
        """Replay compares the float with ``==``: no drift, ever.

        Periods like 3, 7, 97 make the per-connection shares inexact in
        binary, so an incremental ``+=`` / ``-=`` cache would drift from
        the in-order sum within a few operations.
        """
        ctrl = controller()
        opened = []
        for op, pick, period in ops:
            if op == "open":
                c = conn(period, 1 + pick % 2, source=pick % 8, dst=(pick + 1) % 8)
                if ctrl.request(c).accepted:
                    opened.append(c.connection_id)
            elif op == "close" and opened:
                ctrl.remove(opened.pop(pick % len(opened)))
            elif op == "suspend":
                ctrl.suspend_node(pick % 8)
            elif op == "resume":
                ctrl.resume_node(pick % 8)
            read = ctrl.utilisation
            fresh = self.resum(ctrl)
            assert read == fresh and type(read) is type(fresh)
            # A second read is served from the cache.
            assert ctrl.utilisation == fresh

    def test_rejected_request_leaves_the_value_alone(self):
        ctrl = controller()
        ctrl.request(conn(3, 2))
        before = ctrl.utilisation
        assert not ctrl.request(conn(7, 5, source=1, dst=2)).accepted
        assert ctrl.utilisation == before == self.resum(ctrl)
