"""Tests for the master's arbitration (sorting, grant sweep, clock break)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arbitration import Arbiter, BreakPolicy
from repro.phy.packets import CollectionPacket, CollectionRequest
from repro.ring.segments import masks_overlap


def packet(n, master, reqs_by_node):
    """Build a collection packet from a {node: request} mapping."""
    ordered = []
    for d in range(1, n):
        node = (master + d) % n
        ordered.append(reqs_by_node.get(node, CollectionRequest.empty()))
    ordered.append(reqs_by_node.get(master, CollectionRequest.empty()))
    return CollectionPacket(n_nodes=n, master=master, requests=tuple(ordered))


def req(priority, links, destinations=0b1):
    return CollectionRequest(priority=priority, links=links, destinations=destinations)


class TestSorting:
    def test_descending_priority(self):
        pkt = packet(4, 0, {1: req(5, 0b0010), 2: req(20, 0b0100), 3: req(1, 0b1000)})
        arbiter = Arbiter()
        order = [node for node, _ in arbiter.sort_requests(pkt)]
        assert order == [2, 1, 3]

    def test_tie_broken_by_node_index(self):
        pkt = packet(4, 2, {0: req(9, 0b0001), 1: req(9, 0b0010), 3: req(9, 0b1000)})
        arbiter = Arbiter()
        order = [node for node, _ in arbiter.sort_requests(pkt)]
        assert order == [0, 1, 3]

    def test_empty_requests_excluded(self):
        pkt = packet(4, 0, {2: req(9, 0b0100)})
        arbiter = Arbiter()
        assert len(arbiter.sort_requests(pkt)) == 1


class TestBreakLink:
    @pytest.mark.parametrize("n,master,link", [(4, 0, 3), (4, 1, 0), (8, 5, 4), (8, 0, 7)])
    def test_break_is_link_entering_master(self, n, master, link):
        assert Arbiter.break_link(n, master) == link


class TestArbitrationBasics:
    def test_no_requests_master_keeps_clock(self):
        pkt = packet(4, 1, {})
        result = Arbiter().arbitrate(pkt)
        assert result.hp_node == 1
        assert result.grants == ()

    def test_highest_priority_becomes_hp_node(self):
        pkt = packet(4, 0, {1: req(5, 0b0010), 3: req(25, 0b1000)})
        result = Arbiter().arbitrate(pkt)
        assert result.hp_node == 3

    def test_hp_node_always_granted_under_edf_break(self):
        # The hp node's own path can never cross its own break.
        pkt = packet(4, 0, {3: req(25, 0b1000), 1: req(5, 0b0010)})
        result = Arbiter().arbitrate(pkt, BreakPolicy.AT_HP_NODE)
        assert result.is_granted(3)

    def test_analysis_mode_grants_single_request(self):
        arbiter = Arbiter(spatial_reuse=False)
        pkt = packet(4, 0, {1: req(20, 0b0010), 3: req(5, 0b1000)})
        result = arbiter.arbitrate(pkt)
        assert len(result.grants) == 1
        assert result.grants[0].node == 1

    def test_max_grants_cap(self):
        arbiter = Arbiter(spatial_reuse=True, max_grants=1)
        # Two disjoint requests; only one may be granted.
        pkt = packet(8, 0, {1: req(20, 0b0000010), 4: req(19, 0b0010000)})
        result = arbiter.arbitrate(pkt)
        assert len(result.grants) == 1

    def test_invalid_max_grants_rejected(self):
        with pytest.raises(ValueError, match="max_grants"):
            Arbiter(max_grants=0)

    def test_break_node_requires_fixed_policy(self):
        pkt = packet(4, 0, {})
        with pytest.raises(ValueError, match="break_node"):
            Arbiter().arbitrate(pkt, BreakPolicy.AT_HP_NODE, break_node=2)
        with pytest.raises(ValueError, match="break_node"):
            Arbiter().arbitrate(pkt, BreakPolicy.AT_FIXED_NODE)


class TestSpatialReuse:
    def test_disjoint_segments_share_slot(self):
        # Figure 2: 0 -> 2 (links 0, 1) and 3 -> {4, 0} (links 3, 4).
        # Node 3 holds the hp message, so the break sits at link 2 --
        # outside both paths -- and both transmissions share the slot.
        pkt = packet(
            5,
            0,
            {
                0: req(18, 0b00011, destinations=0b00100),
                3: req(20, 0b11000, destinations=0b10001),
            },
        )
        result = Arbiter().arbitrate(pkt)
        assert result.granted_nodes() == {0, 3}

    def test_overlapping_lower_priority_denied(self):
        pkt = packet(
            5,
            0,
            {
                0: req(20, 0b00011),
                1: req(18, 0b00010),  # overlaps link 1
            },
        )
        result = Arbiter().arbitrate(pkt)
        assert result.granted_nodes() == {0}

    def test_granted_segments_never_overlap(self):
        pkt = packet(
            8,
            0,
            {
                0: req(20, 0b00000011),
                2: req(19, 0b00001100),
                4: req(18, 0b00110000),
                6: req(17, 0b01000000),
            },
        )
        result = Arbiter().arbitrate(pkt)
        masks = [g.request.links for g in result.grants]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not masks_overlap(masks[i], masks[j])


class TestClockBreak:
    def test_request_crossing_hp_break_denied(self):
        # hp node is 2 (priority 25); break at link entering 2 = link 1.
        # Node 0's request 0 -> 3 uses links 0, 1, 2: crosses the break.
        pkt = packet(
            4,
            0,
            {
                2: req(25, 0b0100, destinations=0b1000),
                0: req(20, 0b0111, destinations=0b1000),
            },
        )
        result = Arbiter().arbitrate(pkt, BreakPolicy.AT_HP_NODE)
        assert result.is_granted(2)
        assert not result.is_granted(0)
        assert result.denied_by_break == (0,)

    def test_fixed_break_denies_even_highest_priority(self):
        # Round-robin: next master is 1, break at link 0.  The globally
        # highest-priority request (node 0 -> 2, links 0 and 1) crosses
        # it: priority inversion.
        pkt = packet(4, 0, {0: req(31, 0b0011, destinations=0b0100)})
        result = Arbiter().arbitrate(
            pkt, BreakPolicy.AT_FIXED_NODE, break_node=1
        )
        assert result.grants == ()
        assert result.denied_by_break == (0,)
        # hp_node is still reported as node 0 (it held the hp message).
        assert result.hp_node == 0

    def test_no_break_policy_grants_everything_disjoint(self):
        pkt = packet(4, 0, {0: req(31, 0b0011), 2: req(10, 0b0100)})
        result = Arbiter().arbitrate(pkt, BreakPolicy.NONE)
        assert result.granted_nodes() == {0, 2}
        assert result.denied_by_break == ()

    def test_denied_request_does_not_block_lower_priority(self):
        # Node 0's hp-crossing request is denied; node 3's lower-priority
        # disjoint request still gets through.
        pkt = packet(
            4,
            0,
            {
                2: req(25, 0b0100, destinations=0b1000),  # hp, 2 -> 3
                0: req(20, 0b0011, destinations=0b0100),  # crosses link 1
                3: req(5, 0b1000, destinations=0b0001),   # 3 -> 0, link 3
            },
        )
        result = Arbiter().arbitrate(pkt, BreakPolicy.AT_HP_NODE)
        assert result.granted_nodes() == {2, 3}
        assert result.denied_by_break == (0,)


class TestDistributionEncoding:
    def test_round_trip_grants(self):
        pkt = packet(5, 1, {2: req(20, 0b00100), 4: req(10, 0b10000)})
        arbiter = Arbiter()
        result = arbiter.arbitrate(pkt)
        dist = arbiter.build_distribution_packet(pkt, result)
        assert dist.master == 1
        assert dist.hp_node == result.hp_node
        for node in range(5):
            if node == 1:
                continue
            assert dist.granted(node) == result.is_granted(node)


@st.composite
def arbitration_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    master = draw(st.integers(min_value=0, max_value=n - 1))
    reqs = {}
    for node in range(n):
        if draw(st.booleans()):
            # Realistic request: a contiguous path from this node.
            length = draw(st.integers(min_value=1, max_value=n - 1))
            links = 0
            for i in range(length):
                links |= 1 << ((node + i) % n)
            dst = (node + length) % n
            reqs[node] = CollectionRequest(
                priority=draw(st.integers(min_value=1, max_value=31)),
                links=links,
                destinations=1 << dst,
            )
    return packet(n, master, reqs), reqs


def reference_sweep(n, master, reqs, policy, break_node, spatial_reuse, max_grants):
    """The grant sweep spelled with a ``(-priority, node)`` tuple sort."""
    ordered = sorted(reqs.items(), key=lambda e: (-e[1].priority, e[0]))
    if not ordered:
        return master, [], []
    hp_node = ordered[0][0]
    if policy is BreakPolicy.AT_HP_NODE:
        break_mask = 1 << ((hp_node - 1) % n)
    elif policy is BreakPolicy.AT_FIXED_NODE:
        break_mask = 1 << ((break_node - 1) % n)
    else:
        break_mask = 0
    limit = 1 if not spatial_reuse else (max_grants or len(ordered))
    granted, denied, occupied = [], [], 0
    for node, r in ordered:
        if len(granted) >= limit:
            break
        if r.links == 0:
            continue
        if r.links & break_mask:
            denied.append(node)
            continue
        if r.links & occupied:
            continue
        granted.append(node)
        occupied |= r.links
    return hp_node, granted, denied


@st.composite
def sweep_inputs(draw):
    """Any request set: few priorities (many ties), arbitrary link masks
    (zero-link requests included), every break policy and grant cap."""
    n = draw(st.integers(min_value=2, max_value=12))
    master = draw(st.integers(min_value=0, max_value=n - 1))
    top = draw(st.sampled_from([2, 4, 31]))
    reqs = {}
    for node in range(n):
        if draw(st.booleans()):
            reqs[node] = CollectionRequest(
                priority=draw(st.integers(min_value=1, max_value=top)),
                links=draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
                destinations=draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
            )
    policy = draw(st.sampled_from(list(BreakPolicy)))
    break_node = (
        draw(st.integers(min_value=0, max_value=n - 1))
        if policy is BreakPolicy.AT_FIXED_NODE
        else None
    )
    spatial_reuse = draw(st.booleans())
    max_grants = draw(st.none() | st.integers(min_value=1, max_value=4))
    return n, master, reqs, policy, break_node, spatial_reuse, max_grants


class TestIntegerKeySweep:
    @given(sweep_inputs())
    @settings(max_examples=400)
    def test_equals_tuple_sort_sweep(self, inp):
        n, master, reqs, policy, break_node, spatial_reuse, max_grants = inp
        arbiter = Arbiter(spatial_reuse=spatial_reuse, max_grants=max_grants)
        result = arbiter.arbitrate(packet(n, master, reqs), policy, break_node)
        assert (
            result.hp_node,
            [g.node for g in result.grants],
            list(result.denied_by_break),
        ) == reference_sweep(
            n, master, reqs, policy, break_node, spatial_reuse, max_grants
        )
        for g in result.grants:
            assert g.request is reqs[g.node]

    @given(sweep_inputs())
    @settings(max_examples=100)
    def test_sort_requests_is_the_tuple_order(self, inp):
        n, master, reqs = inp[:3]
        order = Arbiter().sort_requests(packet(n, master, reqs))
        assert order == sorted(reqs.items(), key=lambda e: (-e[1].priority, e[0]))


class TestArbitrationProperties:
    @given(arbitration_inputs())
    def test_invariants(self, inp):
        pkt, reqs = inp
        result = Arbiter().arbitrate(pkt, BreakPolicy.AT_HP_NODE)
        n = pkt.n_nodes
        # 1. Grants never overlap pairwise.
        masks = [g.request.links for g in result.grants]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not masks_overlap(masks[i], masks[j])
        # 2. No grant crosses the hp node's break.
        if reqs:
            break_mask = 1 << Arbiter.break_link(n, result.hp_node)
            for m in masks:
                assert not masks_overlap(m, break_mask)
        # 3. The hp node, if it requested links, is granted.
        if reqs:
            hp = result.hp_node
            assert hp in reqs
            assert result.is_granted(hp)
        # 4. hp node holds a maximal priority among requesters.
        if reqs:
            max_prio = max(r.priority for r in reqs.values())
            assert reqs[result.hp_node].priority == max_prio
        # 5. Only requesting nodes are granted.
        for g in result.grants:
            assert g.node in reqs

    @given(arbitration_inputs())
    def test_greedy_maximality(self, inp):
        """No denied, non-break-crossing request would still fit."""
        pkt, reqs = inp
        arbiter = Arbiter()
        result = arbiter.arbitrate(pkt, BreakPolicy.AT_HP_NODE)
        if not reqs:
            return
        occupied = 0
        for g in result.grants:
            occupied |= g.request.links
        break_mask = 1 << Arbiter.break_link(pkt.n_nodes, result.hp_node)
        for node, r in reqs.items():
            if result.is_granted(node):
                continue
            # Every non-granted request must conflict with the grant set
            # or the break (greedy sweep maximality).
            assert masks_overlap(r.links, occupied | break_mask)
