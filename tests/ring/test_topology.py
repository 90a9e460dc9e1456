"""Tests for the unidirectional ring topology."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.fiber import FibreSegment
from repro.ring.topology import RingTopology


class TestConstruction:
    def test_uniform_ring(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        assert ring.n_nodes == 8
        assert len(ring.segments) == 8
        assert all(seg.length_m == 10.0 for seg in ring.segments)

    def test_uniform_rings_are_shared(self):
        """Equal arguments return one instance, so the tables cached per
        topology (gaps, route masks) are built once per ring."""
        ring = RingTopology.uniform(6, link_length_m=10.0)
        assert RingTopology.uniform(6, link_length_m=10.0) is ring
        assert RingTopology.uniform(6, link_length_m=12.0) is not ring
        assert RingTopology.uniform(6, link_length_m=10) == ring

    def test_default_segments_created(self):
        ring = RingTopology(n_nodes=4)
        assert len(ring.segments) == 4

    def test_heterogeneous_segments(self):
        segs = tuple(FibreSegment(float(i + 1)) for i in range(4))
        ring = RingTopology(n_nodes=4, segments=segs)
        assert ring.total_length_m == pytest.approx(1 + 2 + 3 + 4)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            RingTopology.uniform(1)

    def test_segment_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 4 segments"):
            RingTopology(n_nodes=4, segments=(FibreSegment(1.0),) * 3)


class TestHopArithmetic:
    def test_downstream_wraps(self):
        ring = RingTopology.uniform(4)
        assert ring.downstream(3) == 0
        assert ring.downstream(0, hops=5) == 1

    def test_upstream_wraps(self):
        ring = RingTopology.uniform(4)
        assert ring.upstream(0) == 3
        assert ring.upstream(1, hops=2) == 3

    def test_distance(self):
        ring = RingTopology.uniform(5)
        assert ring.distance(0, 3) == 3
        assert ring.distance(3, 0) == 2
        assert ring.distance(2, 2) == 0

    def test_path_links(self):
        ring = RingTopology.uniform(5)
        assert ring.path_links(3, 1) == (3, 4, 0)
        assert ring.path_links(0, 1) == (0,)

    def test_path_to_self_rejected(self):
        ring = RingTopology.uniform(5)
        with pytest.raises(ValueError, match="same node"):
            ring.path_links(2, 2)

    def test_node_out_of_range_rejected(self):
        ring = RingTopology.uniform(4)
        with pytest.raises(ValueError, match="out of range"):
            ring.distance(0, 4)

    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    def test_distance_antisymmetry(self, n, a, b):
        a, b = a % n, b % n
        ring = RingTopology.uniform(n)
        if a != b:
            assert ring.distance(a, b) + ring.distance(b, a) == n
        else:
            assert ring.distance(a, b) == 0

    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    def test_path_length_equals_distance(self, n, a, b):
        a, b = a % n, b % n
        ring = RingTopology.uniform(n)
        if a != b:
            assert len(ring.path_links(a, b)) == ring.distance(a, b)


class TestDelays:
    def test_ring_propagation_delay(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        # 80 m at ~5 ns/m -> ~400 ns.
        assert ring.ring_propagation_delay_s == pytest.approx(4.0e-7, rel=0.01)

    def test_mean_link_length(self):
        segs = tuple(FibreSegment(float(l)) for l in (5, 10, 15, 30))
        ring = RingTopology(n_nodes=4, segments=segs)
        assert ring.mean_link_length_m == pytest.approx(15.0)

    def test_path_propagation_delay(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        one_link = ring.segments[0].propagation_delay_s
        assert ring.propagation_delay_s(2, 5) == pytest.approx(3 * one_link)

    def test_handover_delay_same_node_is_zero(self):
        ring = RingTopology.uniform(8)
        assert ring.handover_delay_s(3, 3) == 0.0

    def test_handover_delay_downstream_neighbour_is_one_link(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        one_link = ring.segments[0].propagation_delay_s
        assert ring.handover_delay_s(3, 4) == pytest.approx(one_link)

    def test_worst_handover_is_upstream_neighbour(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        one_link = ring.segments[0].propagation_delay_s
        assert ring.handover_delay_s(3, 2) == pytest.approx(7 * one_link)
        assert ring.max_handover_delay_s == pytest.approx(7 * one_link)

    def test_max_handover_heterogeneous_excludes_shortest_link(self):
        segs = tuple(FibreSegment(float(l)) for l in (1, 100, 100, 100))
        ring = RingTopology(n_nodes=4, segments=segs)
        total = ring.ring_propagation_delay_s
        shortest = min(s.propagation_delay_s for s in segs)
        assert ring.max_handover_delay_s == pytest.approx(total - shortest)

    def test_handover_gap_table_holds_the_handover_delays(self):
        """The table the vector kernels index carries the very floats
        ``handover_delay_s`` returns (``==``, not approx), laid out
        ``[old * n + new]``, and equal topologies share one table."""
        segs = tuple(FibreSegment(l) for l in (5.0, 12.5, 40.0, 7.25, 0.3))
        ring = RingTopology(n_nodes=5, segments=segs)
        table = ring.handover_gap_table
        assert table == tuple(
            ring.handover_delay_s(a, b) for a in range(5) for b in range(5)
        )
        assert table[3 * 5 + 1] == ring.handover_delay_s(3, 1)
        assert RingTopology(n_nodes=5, segments=segs).handover_gap_table is table
        other = RingTopology(n_nodes=5, segments=segs[::-1])
        assert other.handover_gap_table != table

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=16
        )
    )
    def test_handover_gap_table_diagonal_is_zero(self, lengths):
        """A master keeping the clock pays no gap (Eq. 1): the simulator's
        busy spans from a hand-over slot rely on the diagonal being 0.0."""
        segs = tuple(FibreSegment(l) for l in lengths)
        ring = RingTopology(n_nodes=len(segs), segments=segs)
        table = ring.handover_gap_table
        n = ring.n_nodes
        assert [table[node * (n + 1)] for node in range(n)] == [0.0] * n

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_handover_delay_bounded_by_max(self, n, a, b):
        a, b = a % n, b % n
        ring = RingTopology.uniform(n, link_length_m=10.0)
        assert ring.handover_delay_s(a, b) <= ring.max_handover_delay_s + 1e-18
