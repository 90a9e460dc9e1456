"""Replay correctness: an event log must reconstruct the run's report.

These are the acceptance tests of the observability layer: the JSONL
event log is only trustworthy if folding it back together reproduces the
totals the run itself reported -- released/delivered/missed/dropped,
fault events by kind, recoveries, and full slot coverage (stepped slots
plus fast-forward spans tiling the whole range).
"""

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.obs.events import BoundedEventRing, EventDispatcher, JsonlEventLog
from repro.obs.replay import (
    format_summary,
    iter_jsonl,
    replay_events,
    summarise_log,
)
from repro.sim.fault_models import FaultConfig, ScriptedFaultModel
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.trace import SlotTrace


def connections(n_nodes, k=4):
    return tuple(
        LogicalRealTimeConnection(
            source=i % n_nodes,
            destinations=frozenset({(i + 1) % n_nodes}),
            period_slots=10 + 3 * i,
            size_slots=1,
            connection_id=i,
        )
        for i in range(k)
    )


def faulty_scenario():
    return ScenarioConfig(
        n_nodes=4,
        connections=connections(4),
        fault_config=FaultConfig(
            node_mttf_slots=500,
            node_mttr_slots=30,
            p_collection_loss=5e-3,
            p_distribution_loss=5e-3,
            p_clock_glitch=1e-3,
            seed=7,
        ),
    )


def run_with_log(config, n_slots, path, **option_kwargs):
    observer = EventDispatcher()
    observer.add_sink(JsonlEventLog(path))
    sim = build_simulation(
        config, RunOptions(observer=observer, **option_kwargs)
    )
    report = sim.run(n_slots)
    observer.close()
    return sim, report


class TestReplayUnit:
    def test_replay_counts_slot_deltas(self):
        summary = replay_events(
            [
                {"kind": "run_header", "n_nodes": 4},
                {"kind": "slot", "slot": 0, "master": 0, "released": 2},
                {
                    "kind": "slot",
                    "slot": 1,
                    "master": 0,
                    "delivered": 1,
                    "missed": 1,
                    "transmitted": [[0, 5]],
                },
                {"kind": "fast_forward", "slot_start": 2, "slot_end": 10,
                 "n_slots": 8, "master": 0},
            ]
        )
        assert summary.slots_executed == 2
        assert summary.slots_fast_forwarded == 8
        assert summary.slots_covered == 10
        assert (summary.first_slot, summary.last_slot) == (0, 9)
        assert summary.released == 2
        assert summary.delivered == 1
        assert summary.missed == 1
        assert summary.packets_sent == 1
        assert summary.header["n_nodes"] == 4

    def test_node_down_counts_as_node_failure_fault(self):
        summary = replay_events(
            [
                {"kind": "node_down", "slot": 3, "node": 1},
                {"kind": "node_up", "slot": 9, "node": 1, "purged": 2},
                {"kind": "fault", "slot": 4, "fault": "clock_glitch"},
                {"kind": "recovery", "slot": 4, "designated_node": 0},
            ]
        )
        assert summary.fault_events == {
            "node_failure": 1,
            "clock_glitch": 1,
        }
        assert summary.node_failures == 1
        assert summary.node_rejoins == 1
        assert summary.recoveries == 1

    def test_iter_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "slot"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(iter_jsonl(path))

    def test_format_summary_mentions_totals(self):
        text = format_summary(
            replay_events(
                [{"kind": "slot", "slot": 0, "master": 1, "released": 3}]
            )
        )
        assert "released 3" in text


class TestReplayEquality:
    """The headline invariant: replaying the log == the report."""

    def assert_replay_matches(self, report, summary):
        assert summary.released == report.total_released
        assert summary.delivered == report.total_delivered
        assert summary.missed == report.total_missed
        assert summary.dropped == report.total_dropped
        assert summary.packets_sent == report.packets_sent
        assert dict(summary.fault_events) == dict(
            report.availability_stats.fault_events
        )
        assert summary.recoveries == report.availability_stats.recoveries
        assert summary.node_failures == (
            report.availability_stats.node_failures
        )
        assert summary.node_rejoins == (
            report.availability_stats.node_rejoins
        )
        assert summary.slots_covered == report.slots_simulated

    def test_fault_injection_run_replays_exactly(self, tmp_path):
        path = tmp_path / "faults.jsonl"
        _, report = run_with_log(faulty_scenario(), 5000, path)
        summary = summarise_log(path)
        assert report.availability_stats.total_fault_events > 0
        assert report.availability_stats.recoveries > 0
        self.assert_replay_matches(report, summary)

    def test_fault_run_with_admission_replays_exactly(self, tmp_path):
        path = tmp_path / "admission.jsonl"
        _, report = run_with_log(
            faulty_scenario(), 5000, path, with_admission=True
        )
        summary = summarise_log(path)
        self.assert_replay_matches(report, summary)
        # Node rejoins re-run the admission test; those decisions are in
        # the log (plus the initial pre-run requests at slot=None).
        assert summary.events_by_kind["admission"] >= len(connections(4))

    def test_drop_late_run_replays_exactly(self, tmp_path):
        # Saturate a small ring so drop-late actually drops: the drop
        # deltas and miss deltas must still sum to the report totals.
        # Every source floods node 0 over overlapping ring paths, so at
        # most ~one grant fits per slot against three messages released
        # every two slots: a genuine overload.
        config = ScenarioConfig(
            n_nodes=4,
            drop_late=True,
            connections=tuple(
                LogicalRealTimeConnection(
                    source=i,
                    destinations=frozenset({0}),
                    period_slots=2,
                    size_slots=1,
                    connection_id=i,
                )
                for i in range(1, 4)
            ),
        )
        path = tmp_path / "droplate.jsonl"
        _, report = run_with_log(config, 2000, path)
        assert report.total_dropped > 0
        self.assert_replay_matches(report, summarise_log(path))


class TestFastForwardSpans:
    def test_spans_and_slots_tile_the_run(self, tmp_path):
        # Sparse periodic traffic on a fault-free ring: most slots are
        # idle and fast-forwarded; the log must still cover every slot,
        # as one slot event or inside exactly one span.
        config = ScenarioConfig(
            n_nodes=4,
            connections=(
                LogicalRealTimeConnection(
                    source=0,
                    destinations=frozenset({2}),
                    period_slots=100,
                    size_slots=1,
                    connection_id=0,
                ),
            ),
        )
        path = tmp_path / "ff.jsonl"
        sim, report = run_with_log(config, 10_000, path)
        assert sim.fast_forward, "streaming sinks must not disable ff"
        covered = []
        for event in iter_jsonl(path):
            if event["kind"] == "slot":
                covered.append((event["slot"], event["slot"] + 1))
            elif event["kind"] == "fast_forward":
                assert (
                    event["slot_end"] - event["slot_start"]
                    == event["n_slots"]
                )
                covered.append((event["slot_start"], event["slot_end"]))
        covered.sort()
        assert covered[0][0] == 0
        assert covered[-1][1] == 10_000
        for (_, end), (start, _) in zip(covered, covered[1:]):
            assert end == start, "gap or overlap in slot coverage"
        summary = summarise_log(path)
        assert summary.slots_fast_forwarded > 0
        assert summary.slots_covered == report.slots_simulated
        assert summary.released == report.total_released

    def test_faults_fall_back_to_stepping_with_exact_slots(self, tmp_path):
        # Faults disable fast-forward; every scripted fault must then
        # appear in the log at exactly its scripted slot.
        config = ScenarioConfig(n_nodes=4, connections=connections(4, k=2))
        injector = ScriptedFaultModel(
            control_loss_slots=frozenset({100, 350, 700}),
        )
        path = tmp_path / "scripted.jsonl"
        sim, report = run_with_log(config, 1000, path, faults=injector)
        assert not sim.fast_forward
        faults = sorted(
            (event["slot"], event["fault"])
            for event in iter_jsonl(path)
            if event["kind"] == "fault"
        )
        assert faults == [
            (100, "distribution_loss"),
            (350, "distribution_loss"),
            (700, "distribution_loss"),
        ]
        summary = summarise_log(path)
        assert summary.slots_executed == 1000
        assert summary.slots_fast_forwarded == 0


class TestTraceUnderFaults:
    def test_trace_and_sink_see_the_same_fault_slots(self, tmp_path):
        # A SlotTrace subscribed through the dispatcher and a JSONL sink
        # must agree slot-by-slot on a faulty run.
        config = faulty_scenario()
        trace = SlotTrace(max_records=10_000)
        path = tmp_path / "both.jsonl"
        observer = EventDispatcher()
        observer.add_sink(JsonlEventLog(path))
        sim = build_simulation(config, RunOptions(trace=trace, observer=observer))
        report = sim.run(3000)
        observer.close()
        assert not sim.fast_forward  # traces force slot-by-slot stepping
        assert len(trace.records) == 3000
        slot_events = [
            e for e in iter_jsonl(path) if e["kind"] == "slot"
        ]
        assert len(slot_events) == 3000
        for record, event in zip(trace.records, slot_events):
            assert record.slot == event["slot"]
            assert record.master == event["master"]
            assert len(record.transmitted) == len(
                event.get("transmitted", ())
            )
        summary = summarise_log(path)
        assert dict(summary.fault_events) == dict(
            report.availability_stats.fault_events
        )

    def test_bounded_ring_keeps_tail_of_faulty_run(self):
        config = faulty_scenario()
        observer = EventDispatcher()
        ring = observer.add_sink(BoundedEventRing(max_events=50))
        sim = build_simulation(config, RunOptions(observer=observer))
        sim.run(2000)
        assert len(ring) == 50
        assert ring.dropped > 0
        # Newest-first retention: the tail of the run survives.
        assert max(
            getattr(e, "slot", 0) or 0 for e in ring.events
        ) >= 1990
