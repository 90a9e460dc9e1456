"""``Simulation.run_until``: the one loop that drives the ring.

``run()`` and every signalling wait (the connection client's legs, the
barrier's two phases, the reduction's hops and broadcast) go through it,
so the waits take idle and busy spans like any run.  Pinned here, each
with the fast-forward on and off: the budget is exact, ``done`` is asked
before anything runs, every probe is a ``fast_forward`` profiler lap, and
a wait lands on the slot stepping lands on.
"""

from __future__ import annotations

import operator

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.services.api import ConnectionClient, MessageInjector
from repro.services.barrier import BarrierCoordinator
from repro.services.reduction import GlobalReduction
from repro.sim.profiling import PhaseProfiler
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation

both = pytest.mark.parametrize(
    "fast_forward", [True, False], ids=["fast_forward", "stepped"]
)


def conn(source, dsts, period, size, phase=0):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset(dsts),
        period_slots=period,
        size_slots=size,
        phase_slots=phase,
    )


#: Long messages the signalling waits queue behind: busy spans with
#: waiting requesters, and idle gaps between the releases.
BACKGROUND = (conn(1, [4], 200, 60), conn(3, [5], 150, 20, phase=30))


def ring(fast_forward, connections=BACKGROUND, n=6, profiler=None):
    injectors = {i: MessageInjector(i) for i in range(n)}
    sim = build_simulation(
        ScenarioConfig(n_nodes=n, connections=connections),
        RunOptions(
            extra_sources=tuple(injectors.values()),
            with_admission=True,
            fast_forward=fast_forward,
            profiler=profiler,
            engine="python",
        ),
    )
    return sim, injectors


class Counted:
    """A ``done`` predicate that turns true on its ``true_at``-th call."""

    def __init__(self, true_at: int | None = None) -> None:
        self.true_at = true_at
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls == self.true_at


class TestBudget:
    @both
    @pytest.mark.parametrize("connections", [(), BACKGROUND], ids=["idle", "busy"])
    def test_budget_runs_out_after_exactly_max_slots(
        self, fast_forward, connections
    ):
        sim, _ = ring(fast_forward, connections)
        sim.run(7)
        start = sim.current_slot
        assert sim.run_until(lambda: False, 333) is False
        assert sim.current_slot - start == 333

    @both
    def test_already_true_runs_no_slot(self, fast_forward):
        sim, _ = ring(fast_forward)
        sim.run(11)
        for budget in (0, 50):
            done = Counted(true_at=1)
            assert sim.run_until(done, budget) is True
            assert done.calls == 1
            assert sim.current_slot == 11

    @both
    def test_done_wins_over_an_exhausted_budget(self, fast_forward):
        sim, _ = ring(fast_forward)
        # done() turns true in the slot the budget runs out: done it is.
        assert sim.run_until(lambda: sim.current_slot >= 40, 40) is True
        assert sim.current_slot == 40

    def test_negative_budget_rejected(self):
        sim, _ = ring(True)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run_until(lambda: False, -1)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(-1)

    @both
    def test_signalling_timeout_spends_exactly_the_budget(self, fast_forward):
        sim, injectors = ring(fast_forward, connections=())
        client = ConnectionClient(sim, sim.admission, 0, injectors)
        start = sim.current_slot
        with pytest.raises(TimeoutError, match="within 1 slots"):
            client.open_lrtc(conn(2, [3], 100, 1), max_wait_slots=1)
        assert sim.current_slot - start == 1


class TestProbes:
    def test_done_is_asked_before_every_step_or_span(self):
        profiler = PhaseProfiler()
        sim, _ = ring(True, profiler=profiler)
        done = Counted()
        sim.run_until(done, 1_000)
        probes = profiler.calls["fast_forward"]
        # Every iteration probes once, and the last question is the
        # budget's.
        assert done.calls == probes + 1
        # Spans were taken: fewer steps than probes.
        assert profiler.calls["release"] < probes

    def test_stepped_ring_records_no_probe(self):
        profiler = PhaseProfiler()
        sim, _ = ring(False, profiler=profiler)
        sim.run(300)
        assert "fast_forward" not in profiler.calls
        assert profiler.calls["release"] == 300

    def test_run_is_run_until_with_a_budget(self):
        profiler = PhaseProfiler()
        sim, _ = ring(True, profiler=profiler)
        sim.run(1_000)
        assert sim.current_slot == 1_000
        assert profiler.calls["fast_forward"] > profiler.calls["release"]


def spanned_during(sim, action):
    """``action()``'s result and the slots the engine spanned meanwhile."""
    counters = sim.profiler.counters
    before = counters["busy_forwarded_slots"] + counters["fast_forwarded_slots"]
    result = action()
    after = counters["busy_forwarded_slots"] + counters["fast_forwarded_slots"]
    return result, after - before


class TestWaitsLandWhereSteppingLands:
    """The stepped ring is the reference: same slots, same report."""

    def play(self, fast_forward, episode):
        sim, injectors = ring(fast_forward, profiler=PhaseProfiler())
        sim.run(5)
        results, spanned = [], 0
        for _ in range(3):
            result, k = spanned_during(sim, lambda: episode(sim, injectors))
            results.append(result)
            spanned += k
            sim.run(37)
        return results, sim.report, spanned

    def check(self, episode):
        fast, fast_report, spanned = self.play(True, episode)
        slow, slow_report, _ = self.play(False, episode)
        assert fast == slow
        assert fast_report == slow_report
        # Not vacuous: the waits did fast-forward.
        assert spanned > 0
        return fast

    def test_barrier(self):
        results = self.check(
            lambda sim, injectors: BarrierCoordinator(
                sim, injectors, coordinator=0
            ).execute(range(6))
        )
        assert [(r.start_slot, r.end_slot) for r in results] == [
            (5, 86), (123, 131), (168, 176)
        ]

    def test_reduction(self):
        self.check(
            lambda sim, injectors: GlobalReduction(sim, injectors).execute(
                {n: n + 1 for n in range(6)}, operator.add
            )
        )

    def test_connection_client(self):
        def open_close(sim, injectors):
            client = ConnectionClient(sim, sim.admission, 0, injectors)
            c = conn(2, [5], 40, 3)
            opened = client.open_lrtc(c)
            closed = client.close_lrtc(c.connection_id)
            return opened.slots_used, closed.slots_used

        self.check(open_close)

    @both
    def test_barrier_timeout_budget_spans_both_phases(self, fast_forward):
        sim, injectors = ring(fast_forward)
        barrier = BarrierCoordinator(sim, injectors, coordinator=0)
        with pytest.raises(TimeoutError, match="release phase"):
            # The gather phase completes in slot 84, the release in 86.
            barrier.execute(range(6), max_slots=85)
        assert sim.current_slot == 85
