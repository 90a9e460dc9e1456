"""The oracle's per-slot path builds no plan record.

The engine keeps the pending plan as the protocol's record-free
arbitration returns it; a :class:`SlotPlan` is built only for a reader
(a slot trace, :attr:`Simulation.pending_plan`, ``plan_slot`` callers),
and one :class:`SlotOutcome` per executed step, which ``step()`` returns.
Under ``trace_packets`` the protocol keeps its last round's record.
These counts do not depend on the host, so they pin the property.
"""

import numpy as np
import pytest

from repro.baselines.tdma import TdmaProtocol
from repro.core.protocol import SlotOutcome, SlotPlan
from repro.core.queues import NodeQueues
from repro.obs.events import EventDispatcher, JsonlEventLog
from repro.ring.topology import RingTopology
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.trace import SlotTrace
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation

SLOTS = 2_000


def loaded_config():
    """The ``oracle_loaded_n8`` shape: N = 8, 16 connections, U = 0.8."""
    rng = np.random.default_rng(1)
    conns = scale_connections_to_utilisation(
        random_connection_set(rng, 8, 16, 0.5, period_range=(10, 100)), 0.8
    )
    return ScenarioConfig(n_nodes=8, connections=tuple(conns))


@pytest.fixture
def built(monkeypatch):
    """Counts of records constructed, by class name."""
    counts = {"SlotPlan": 0, "SlotOutcome": 0}
    for cls in (SlotPlan, SlotOutcome):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            counts[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def run_counting_steps(options):
    """Run ``SLOTS`` slots on the oracle; returns (sim, executed steps)."""
    sim = build_simulation(loaded_config(), options)
    steps = [0]
    step = sim.step

    def counted():
        steps[0] += 1
        return step()

    sim.step = counted
    sim.run(SLOTS)
    return sim, steps[0]


def test_plain_run_builds_no_plan(built):
    sim, steps = run_counting_steps(RunOptions(engine="python"))
    assert sim.report.packets_sent > 1_000
    assert 0 < steps < SLOTS  # busy and idle spans were taken
    assert built == {"SlotPlan": 0, "SlotOutcome": steps}


def test_event_log_builds_no_plan(built, tmp_path):
    observer = EventDispatcher()
    log = observer.add_sink(JsonlEventLog(tmp_path / "events.jsonl"))
    sim, steps = run_counting_steps(
        RunOptions(engine="python", observer=observer)
    )
    observer.close()
    assert log.events_written > SLOTS
    assert built == {"SlotPlan": 0, "SlotOutcome": steps}


def test_slot_trace_gets_plans(built):
    trace = SlotTrace()
    sim, steps = run_counting_steps(RunOptions(engine="python", trace=trace))
    assert steps == SLOTS  # a trace disables fast-forward
    assert len(trace) == SLOTS
    assert built["SlotPlan"] > 0
    assert built["SlotOutcome"] == steps


def test_traced_packets_keep_their_records(built):
    sim = build_simulation(loaded_config(), RunOptions(engine="python"))
    sim.protocol.trace_packets = True
    sim.run(200)
    assert built["SlotPlan"] == 0  # the record is built when read
    plan = sim.pending_plan
    assert plan.arbitration is not None
    assert plan.collection_packet is not None


def test_pending_plan_is_the_engine_fields():
    sim = build_simulation(loaded_config(), RunOptions(engine="python"))
    sim.run(500)
    plan = sim.pending_plan
    assert plan.transmit_slot == sim.current_slot
    assert (
        plan.master,
        plan.gap_s,
        plan.transmissions,
        plan.denied_by_break,
        plan.n_requests,
    ) == sim._pending
    assert plan.arbitration is None
    with pytest.raises(AttributeError):
        sim.pending_plan = plan


def test_plan_slot_wraps_the_record_free_arbitration():
    """Same queues, same answer: ``plan_slot`` is ``arbitrate`` dated."""
    sim = build_simulation(loaded_config(), RunOptions(engine="python"))
    sim.run(300)
    protocol = sim.protocol
    slot, master = sim.current_slot, sim.pending_plan.master
    fields = protocol.arbitrate(slot, master, sim.queues)
    plan = protocol.plan_slot(slot, master, sim.queues)
    assert SlotPlan(slot + 1, *fields) == plan


def test_default_arbitrate_unpacks_plan_slot():
    """A protocol implementing only ``plan_slot`` (the baselines) runs
    through the default record-free entry unchanged."""
    tdma = TdmaProtocol(RingTopology.uniform(4, 10.0))
    queues = {i: NodeQueues(i) for i in range(4)}
    plan = tdma.plan_slot(7, 1, queues)
    assert tdma.arbitrate(7, 1, queues) == (
        plan.master,
        plan.gap_s,
        plan.transmissions,
        plan.denied_by_break,
        plan.n_requests,
    )
