"""Tests for typed events, sinks, and the dispatcher."""

import json

import pytest

from repro.obs.events import (
    AdmissionDecided,
    ArbitrationDenied,
    BoundedEventRing,
    EventDispatcher,
    FastForwardSpan,
    FaultInjected,
    HandoverOccurred,
    JsonlEventLog,
    NodeFailed,
    NodeRejoined,
    RecoveryPerformed,
    RunHeader,
    SlotExecuted,
)


def make_slot_event(**overrides):
    base = dict(
        slot=7,
        master=2,
        gap_s=1.5e-7,
        transmitted=((0, 11), (3, 12)),
        n_requests=4,
        released=2,
        delivered=1,
        missed=0,
        dropped=0,
    )
    base.update(overrides)
    return SlotExecuted(**base)


class TestEventSerialisation:
    def test_kind_discriminators_are_unique(self):
        kinds = [
            cls.kind
            for cls in (
                RunHeader,
                SlotExecuted,
                HandoverOccurred,
                FastForwardSpan,
                FaultInjected,
                RecoveryPerformed,
                NodeFailed,
                NodeRejoined,
                AdmissionDecided,
                ArbitrationDenied,
            )
        ]
        assert len(kinds) == len(set(kinds))

    def test_to_dict_leads_with_kind(self):
        d = FaultInjected(slot=3, fault="clock_glitch").to_dict()
        assert list(d)[0] == "kind"
        assert d == {"kind": "fault", "slot": 3, "fault": "clock_glitch"}

    def test_to_json_round_trips(self):
        event = NodeRejoined(slot=9, node=1, purged=4)
        assert json.loads(event.to_json()) == event.to_dict()

    def test_slot_event_hand_rolled_json_matches_generic(self):
        # SlotExecuted.to_json is a hand-rolled fast path; it must parse
        # to the same dict as the generic encoder, minus omitted zeros.
        event = make_slot_event()
        parsed = json.loads(event.to_json())
        generic = json.loads(json.dumps(event.to_dict()))
        for key, value in parsed.items():
            if key == "transmitted":
                assert [tuple(p) for p in value] == [
                    tuple(p) for p in generic["transmitted"]
                ]
            else:
                assert value == generic[key]

    def test_slot_event_omits_zero_fields(self):
        event = make_slot_event(
            gap_s=0.0,
            transmitted=(),
            n_requests=0,
            released=0,
            delivered=0,
            missed=0,
            dropped=0,
        )
        parsed = json.loads(event.to_json())
        assert parsed == {"kind": "slot", "slot": 7, "master": 2}

    def test_handover_hand_rolled_json_matches_generic(self):
        event = HandoverOccurred(
            slot=40, from_node=1, to_node=6, hops=5, gap_s=2.5e-7
        )
        assert json.loads(event.to_json()) == event.to_dict()

    def test_arbitration_hand_rolled_json_matches_generic(self):
        event = ArbitrationDenied(slot=9, nodes=(2, 5))
        parsed = json.loads(event.to_json())
        assert parsed == {"kind": "arbitration", "slot": 9, "nodes": [2, 5]}
        assert tuple(parsed["nodes"]) == event.nodes

    def test_slot_event_float_gap_survives(self):
        event = make_slot_event(gap_s=2.4999999999999998e-07)
        assert json.loads(event.to_json())["gap_s"] == event.gap_s


class FakeTx:
    def __init__(self, node, msg_id):
        self.node = node
        self.message = type("M", (), {"msg_id": msg_id})()


class TestSlotFastPath:
    def test_slot_line_matches_event_to_json(self):
        # JsonlEventLog formats slots straight from the engine's fields
        # (no SlotExecuted built on the hot path); the line must be
        # byte-identical to what the event object would have produced.
        transmitted = (FakeTx(0, 11), FakeTx(3, 12))
        entry = (7, 2, 1.5e-7, transmitted, 4, 2, 1, 0, 0)
        assert JsonlEventLog._slot_line(*entry) == make_slot_event().to_json()

    def test_slot_line_omits_zero_fields(self):
        entry = (7, 2, 0.0, (), 0, 0, 0, 0, 0)
        assert json.loads(JsonlEventLog._slot_line(*entry)) == {
            "kind": "slot", "slot": 7, "master": 2,
        }

    def test_default_emit_slot_builds_the_event(self):
        ring = BoundedEventRing()
        ring.emit_slot(3, 1, 0.0, (FakeTx(2, 9),), 1, 1, 1, 0, 0)
        (event,) = ring.events
        assert isinstance(event, SlotExecuted)
        assert event.slot == 3
        assert event.transmitted == ((2, 9),)


class TestRawFieldEvents:
    """Per-slot kinds reach sinks as ``(class, field values)``; the
    JSONL log keeps them raw and must write what the event would."""

    EVENTS = (
        HandoverOccurred(slot=9, from_node=1, to_node=3, hops=2, gap_s=2.5e-7),
        HandoverOccurred(slot=0, from_node=7, to_node=0, hops=1, gap_s=1 / 3),
        ArbitrationDenied(slot=4, nodes=(0, 5)),
        ArbitrationDenied(slot=11, nodes=(3,)),
        ArbitrationDenied(slot=12, nodes=()),
        FastForwardSpan(slot_start=10, slot_end=40, n_slots=30, master=2),
    )

    @staticmethod
    def values(event):
        return tuple(event.to_dict().values())[1:]

    def test_json_line_is_the_canonical_serialisation(self):
        # The hand-rolled lines must match the generic serialiser byte
        # for byte: key order, separators and float reprs included.
        for event in self.EVENTS:
            canonical = json.dumps(event.to_dict(), separators=(",", ":"))
            assert type(event).json_line(*self.values(event)) == canonical
            assert event.to_json() == canonical

    def test_jsonl_log_writes_raw_fields_as_events(self, tmp_path):
        raw, built = tmp_path / "raw.jsonl", tmp_path / "built.jsonl"
        with JsonlEventLog(raw, buffer_lines=2) as log:
            for event in self.EVENTS:
                log.emit_fields(type(event), self.values(event))
        with JsonlEventLog(built) as log:
            for event in self.EVENTS:
                log.emit(event)
        assert raw.read_text() == built.read_text()

    def test_default_emit_fields_builds_the_event(self):
        ring = BoundedEventRing()
        dispatcher = EventDispatcher((ring,))
        for event in self.EVENTS:
            dispatcher.emit_fields(type(event), *self.values(event))
        assert ring.events == self.EVENTS


class TestJsonlEventLog:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventLog(path, buffer_lines=2) as log:
            log.emit(FaultInjected(slot=1, fault="collection_loss"))
            log.emit(FaultInjected(slot=2, fault="collection_loss"))
            log.emit(FaultInjected(slot=3, fault="collection_loss"))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["slot"] for line in lines] == [1, 2, 3]
        assert log.events_written == 3

    def test_buffering_defers_writes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path, buffer_lines=100)
        log.emit(NodeFailed(slot=0, node=1))
        assert path.read_text() == ""  # still buffered
        log.flush()
        assert len(path.read_text().splitlines()) == 1
        log.close()

    def test_close_is_idempotent(self, tmp_path):
        log = JsonlEventLog(tmp_path / "e.jsonl")
        log.emit(NodeFailed(slot=0, node=1))
        log.close()
        log.close()

    def test_rejects_silly_buffer(self, tmp_path):
        with pytest.raises(ValueError, match="buffer_lines"):
            JsonlEventLog(tmp_path / "e.jsonl", buffer_lines=0)


class TestBoundedEventRing:
    def test_keeps_newest_and_counts_dropped(self):
        ring = BoundedEventRing(max_events=3)
        for slot in range(5):
            ring.emit(NodeFailed(slot=slot, node=0))
        assert [e.slot for e in ring.events] == [2, 3, 4]
        assert ring.dropped == 2
        assert len(ring) == 3

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="max_events"):
            BoundedEventRing(max_events=0)


class TestEventDispatcher:
    def test_emit_fans_out_to_all_sinks(self):
        a, b = BoundedEventRing(), BoundedEventRing()
        dispatcher = EventDispatcher()
        dispatcher.add_sink(a)
        dispatcher.add_sink(b)
        dispatcher.emit(FaultInjected(slot=1, fault="clock_glitch"))
        assert len(a) == len(b) == 1

    def test_only_traces_block_fast_forward(self):
        dispatcher = EventDispatcher()
        assert not dispatcher.blocks_fast_forward
        assert not dispatcher.wants_slot_events
        dispatcher.add_sink(BoundedEventRing())
        assert not dispatcher.blocks_fast_forward
        assert dispatcher.wants_slot_events

        class FakeTrace:
            def on_slot(self, *a, **k):
                pass

        dispatcher.add_trace(FakeTrace())
        assert dispatcher.blocks_fast_forward

    def test_close_closes_sinks(self, tmp_path):
        dispatcher = EventDispatcher()
        log = dispatcher.add_sink(JsonlEventLog(tmp_path / "e.jsonl"))
        dispatcher.emit(NodeFailed(slot=0, node=2))
        dispatcher.close()
        assert (tmp_path / "e.jsonl").read_text().strip() != ""
        assert log._fh.closed
