"""Tests for the clock hand-over strategies."""

import pytest

from repro.core.arbitration import ArbitrationResult
from repro.core.clocking import EdfHandover, RoundRobinHandover
from repro.ring.topology import RingTopology


def result(master, hp_node):
    return ArbitrationResult(master=master, grants=(), hp_node=hp_node)


class TestEdfHandover:
    def test_hands_to_hp_node(self):
        ring = RingTopology.uniform(8)
        strategy = EdfHandover()
        assert strategy.next_master(ring, 2, result(2, 6)) == 6

    def test_master_may_keep_clock(self):
        ring = RingTopology.uniform(8)
        strategy = EdfHandover()
        assert strategy.next_master(ring, 3, result(3, 3)) == 3

    def test_stale_result_rejected(self):
        ring = RingTopology.uniform(8)
        strategy = EdfHandover()
        with pytest.raises(ValueError, match="current master"):
            strategy.next_master(ring, 2, result(5, 6))

    def test_gap_is_propagation_delay(self):
        ring = RingTopology.uniform(8, link_length_m=10.0)
        strategy = EdfHandover()
        nxt = strategy.next_master(ring, 2, result(2, 5))
        assert ring.handover_delay_s(2, nxt) == pytest.approx(
            ring.propagation_delay_s(2, 5)
        )

    def test_gap_zero_when_master_kept(self):
        ring = RingTopology.uniform(8)
        nxt = EdfHandover().next_master(ring, 4, result(4, 4))
        assert ring.handover_delay_s(4, nxt) == 0.0

    def test_gap_varies_with_distance(self):
        # "The size of the gap between slots depends on the distance to
        # the next master, which will vary between 1 and N-1."
        ring = RingTopology.uniform(8, link_length_m=10.0)
        gaps = [ring.handover_delay_s(0, d) for d in range(1, 8)]
        assert gaps == sorted(gaps)
        assert gaps[-1] == pytest.approx(7 * gaps[0])


class TestRoundRobinHandover:
    def test_always_next_downstream(self):
        ring = RingTopology.uniform(8)
        strategy = RoundRobinHandover()
        for master in range(8):
            assert strategy.next_master(ring, master, result(master, 5)) == (
                (master + 1) % 8
            )

    def test_ignores_hp_node(self):
        ring = RingTopology.uniform(8)
        strategy = RoundRobinHandover()
        assert strategy.next_master(ring, 0, result(0, 7)) == 1

    def test_gap_is_constant_one_link(self):
        # "The clock hand over time, between slots, is constant."
        ring = RingTopology.uniform(8, link_length_m=10.0)
        strategy = RoundRobinHandover()
        one_link = ring.segments[0].propagation_delay_s
        for master in range(8):
            nxt = strategy.next_master(ring, master, result(master, 0))
            assert ring.handover_delay_s(master, nxt) == pytest.approx(one_link)

    def test_full_rotation_visits_every_node(self):
        ring = RingTopology.uniform(5)
        strategy = RoundRobinHandover()
        master = 0
        visited = [master]
        for _ in range(4):
            master = strategy.next_master(ring, master, result(master, 0))
            visited.append(master)
        assert sorted(visited) == list(range(5))
