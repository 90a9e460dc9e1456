"""Experiment F6/F7 -- Figures 6 and 7: the hand-over timeline.

Figure 6's example: node 1 is master; arbitration during slot i-1
discovers node 3 has the highest priority and will clock slot i.
Figure 7's points: (1) distribution packet fully sent, clock stops one
bit time later; (2) the new master senses the stop and starts clocking;
(3) downstream nodes resume.  The bench reconstructs the example, checks
every timeline quantity at bit-time resolution, and prints the Figure 7
reference points.
"""

import pytest
from conftest import print_table

from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.queues import NodeQueues
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.phy.packets import distribution_packet_length_bits
from repro.ring.topology import RingTopology


def rt_msg(node, dst, deadline):
    return Message(
        source=node,
        destinations=frozenset([dst]),
        traffic_class=TrafficClass.RT_CONNECTION,
        size_slots=1,
        created_slot=0,
        deadline_slot=deadline,
        connection_id=0,
    )


def test_f6_figure_example(run_once, benchmark):
    """Replicate Figure 6 (0-indexed: master 0, hp node 2 of a 5-ring)."""

    def reenact():
        topology = RingTopology.uniform(5, 10.0)
        protocol = CcrEdfProtocol(topology, trace_packets=True)
        queues = {i: NodeQueues(i) for i in range(5)}
        # Node 2 holds the most urgent message; node 4 something lax.
        queues[2].enqueue(rt_msg(2, 4, deadline=3))
        queues[4].enqueue(rt_msg(4, 0, deadline=500))
        plan = protocol.plan_slot(0, current_master=0, queues_by_node=queues)
        return topology, plan

    topology, plan = run_once(reenact)
    rows = [
        ("master of slot i-1", 0),
        ("hp node discovered by arbitration", plan.arbitration.hp_node),
        ("master of slot i", plan.master),
        ("hand-over distance [hops]", topology.distance(0, plan.master)),
        ("hand-over gap [ns]", plan.gap_s * 1e9),
    ]
    print_table("F6: the figure's hand-over example (0-indexed)", ["quantity", "value"], rows)
    assert plan.master == 2
    assert plan.gap_s == pytest.approx(topology.handover_delay_s(0, 2))
    # The distribution packet announces the hp node to everyone.
    assert plan.distribution_packet.hp_node == 2
    benchmark.extra_info["gap_ns"] = plan.gap_s * 1e9


def test_f7_timeline_points(run_once, benchmark):
    """The Figure 7 points at bit-time resolution for the F6 example."""

    def timeline():
        n = 5
        topology = RingTopology.uniform(n, 10.0)
        link = FibreRibbonLink()
        timing = NetworkTiming(topology=topology, link=link)
        bit = link.bit_time_s
        dist_bits = distribution_packet_length_bits(n)
        # t=0: end of the distribution packet at the old master (node 0).
        # Point 1: old master stops the clock one bit time later.
        p1 = bit
        # Point 2: the new master (node 2) has received the packet
        # (propagation 0->2) and senses the clock stop one bit later;
        # it resumes clocking with a single bit-time gap.
        prop_02 = topology.propagation_delay_s(0, 2)
        p2 = prop_02 + p1 + bit
        # Point 3: node 3 (downstream of the new master) receives the
        # distribution packet and sees the clock again one bit after it.
        prop_03 = topology.propagation_delay_s(0, 3)
        p3 = prop_03 + p1 + bit
        return [
            ("distribution packet length [bits]", dist_bits),
            ("P1: clock stops after [ns]", p1 * 1e9),
            ("P2: new master resumes at [ns]", p2 * 1e9),
            ("P3: node 3 sees clock again at [ns]", p3 * 1e9),
            ("slot gap modelled (P*L*D) [ns]", timing.handover_time_s(2) * 1e9),
        ]

    rows = run_once(timeline)
    print_table("F7: hand-over timeline reference points", ["point", "value"], rows)
    values = dict(rows)
    # The modelled Eq. (1) gap equals the propagation component of P2:
    # the bit-time bookkeeping is constant overhead either side.
    assert values["P2: new master resumes at [ns]"] > values[
        "P1: clock stops after [ns]"
    ]
    assert values["P3: node 3 sees clock again at [ns]"] > values[
        "P2: new master resumes at [ns]"
    ]
    benchmark.extra_info["points"] = len(rows)


def test_f67_gap_never_crossed_by_data(run_once, benchmark):
    """Structural consequence of the timeline: in a long traced run no
    transmission ever uses the link entering its slot's master."""

    def traced():
        import numpy as np

        from repro.sim.runner import ScenarioConfig, build_simulation
        from repro.traffic.periodic import random_connection_set

        rng = np.random.default_rng(67)
        conns = random_connection_set(rng, 8, 12, 0.8, period_range=(5, 60))
        config = ScenarioConfig(n_nodes=8, connections=tuple(conns))
        sim = build_simulation(config)
        violations = 0
        checked = 0
        for _ in range(5000):
            plan = sim.pending_plan
            break_mask = 1 << ((plan.master - 1) % 8)
            for tx in plan.transmissions:
                checked += 1
                if tx.links & break_mask:
                    violations += 1
            sim.step()
        return checked, violations

    checked, violations = run_once(traced)
    print_table(
        "F6/F7: clock-break discipline over 5000 slots",
        ["transmissions checked", "break crossings"],
        [(checked, violations)],
    )
    assert checked > 1000
    assert violations == 0
    benchmark.extra_info["checked"] = checked
