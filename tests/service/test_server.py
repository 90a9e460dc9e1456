"""Tests for the live admission service: lifecycle, ops, backpressure.

pytest-asyncio is not available in the toolchain, so every test drives
its own event loop with ``asyncio.run`` from a plain sync function.
"""

import asyncio

import pytest

from repro.core.connection import LogicalRealTimeConnection
from repro.obs.events import EventDispatcher, JsonlEventLog
from repro.obs.replay import iter_jsonl, summarise_log
from repro.service import (
    AdmissionClient,
    AdmissionService,
    ServiceBackpressure,
    ServiceClosed,
    ServiceFailed,
)
from repro.service.server import LATENCY_WINDOW, percentile
from repro.sim.runner import ScenarioConfig


def config(n=8):
    return ScenarioConfig(n_nodes=n)


def conn(period, size, source=1, dst=2):
    return LogicalRealTimeConnection(
        source=source,
        destinations=frozenset([dst]),
        period_slots=period,
        size_slots=size,
    )


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        async def scenario():
            service = AdmissionService(config())
            assert not service.running
            async with service:
                assert service.running
                assert service.controller is not None
            assert not service.running

        asyncio.run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()

        asyncio.run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            service = AdmissionService(config())
            await service.start()
            await service.stop()
            await service.stop()  # no-op, no error

        asyncio.run(scenario())

    def test_submit_after_stop_raises_service_closed(self):
        async def scenario():
            service = AdmissionService(config())
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosed):
                await service.submit("status")

        asyncio.run(scenario())

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionService(config(), queue_depth=0)


class TestOperations:
    def test_open_status_close_round_trip(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                c = conn(10, 1)
                reply = await client.open_lrtc(c)
                assert reply.accepted
                assert reply.decision.accepted
                assert reply.slots_used > 0
                status = await client.status()
                assert status.admitted == 1
                assert status.utilisation == c.utilisation
                closed = await client.close_lrtc(c.connection_id)
                assert closed.accepted
                assert (await client.status()).admitted == 0

        asyncio.run(scenario())

    def test_open_rejected_when_over_u_max(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                first = await client.open_lrtc(conn(10, 6))
                second = await client.open_lrtc(conn(10, 6))
                assert first.accepted
                assert second.outcome == "rejected"
                assert not second.accepted
                # The reject did not change admitted utilisation.
                assert (await client.status()).admitted == 1

        asyncio.run(scenario())

    def test_close_unknown_connection_is_typed_error(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                reply = await client.close_lrtc(999_999_999)
                assert reply.outcome == "error"
                assert "KeyError" in reply.error
                assert service.request_totals["close:error"] == 1

        asyncio.run(scenario())

    def test_unknown_op_rejected_at_submit(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                with pytest.raises(ValueError, match="unknown op"):
                    await service.submit("bogus")

        asyncio.run(scenario())

    def test_suspend_then_resume_node_round_trip(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                c = conn(10, 1, source=3)
                await client.open_lrtc(c)
                down = await client.suspend_node(3)
                assert down.accepted
                assert (await client.status()).suspended == 1
                up = await client.resume_node(3)
                assert up.accepted
                assert [d.connection.connection_id for d in up.resumed] == [
                    c.connection_id
                ]
                assert (await client.status()).suspended == 0

        asyncio.run(scenario())

    def test_resume_ordering_is_suspension_order(self):
        """Re-admission after rejoin retries connections in the order
        they were admitted; an interloper that claimed the freed share
        makes exactly the tail fail (Section 6 under churn)."""

        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                small = conn(8, 1, source=3)  # 0.125
                large = conn(4, 1, source=3)  # 0.25
                assert (await client.open_lrtc(small)).accepted
                assert (await client.open_lrtc(large)).accepted
                await client.suspend_node(3)
                # Grab part of the freed share while node 3 is down
                # (0.6: leaves room for small but not small+large under
                # the 8-node u_max of ~0.88).
                interloper = conn(10, 6, source=1)
                assert (await client.open_lrtc(interloper)).accepted
                up = await client.resume_node(3)
                assert up.outcome == "rejected"  # not all fit any more
                order = [d.connection.connection_id for d in up.resumed]
                assert order == [small.connection_id, large.connection_id]
                assert up.resumed[0].accepted
                assert not up.resumed[1].accepted
                status = await client.status()
                assert status.suspended == 1
                # Tear the interloper down and the rest re-admits.
                await client.close_lrtc(interloper.connection_id)
                retry = await client.resume_node(3)
                assert retry.accepted
                assert (await client.status()).suspended == 0

        asyncio.run(scenario())


class TestSerialisation:
    def test_concurrent_submissions_served_in_arrival_order(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                opens = [conn(100, 1) for _ in range(5)]
                replies = await asyncio.gather(
                    *(client.open_lrtc(c) for c in opens),
                    service.submit("status"),
                )
                seqs = [r.seq for r in replies]
                assert seqs == sorted(seqs)
                # The trailing status was served after every open.
                assert replies[-1].status.admitted == 5

        asyncio.run(scenario())

    def test_replies_carry_monotonic_slots(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                slots = []
                for _ in range(3):
                    reply = await client.open_lrtc(conn(100, 1))
                    slots.append(reply.status.slot)
                assert slots == sorted(slots)
                assert slots[-1] > 0  # signalling consumed ring slots

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_raises_typed_rejection(self):
        async def scenario():
            async with AdmissionService(config(), queue_depth=1) as service:
                results = await asyncio.gather(
                    service.submit("status"),
                    service.submit("status"),
                    service.submit("status"),
                    return_exceptions=True,
                )
                rejected = [
                    r for r in results if isinstance(r, ServiceBackpressure)
                ]
                served = [
                    r for r in results if not isinstance(r, Exception)
                ]
                assert len(rejected) == 2
                assert len(served) == 1
                assert service.backpressure_total == 2
                assert rejected[0].max_depth == 1
                assert "backpressure" in str(rejected[0])

        asyncio.run(scenario())

    def test_rejected_request_is_never_served(self):
        async def scenario():
            async with AdmissionService(config(), queue_depth=1) as service:
                c = conn(10, 1)
                results = await asyncio.gather(
                    service.submit("status"),
                    service.submit("open", connection=c),
                    return_exceptions=True,
                )
                assert isinstance(results[1], ServiceBackpressure)
                assert results[1].op == "open"
                # The rejected open never reached the controller.
                assert len(service.controller.accepted_connections) == 0
                assert "open:accepted" not in service.request_totals

        asyncio.run(scenario())

    def test_backpressure_counted_in_registry(self):
        async def scenario():
            async with AdmissionService(config(), queue_depth=1) as service:
                await asyncio.gather(
                    service.submit("status"),
                    service.submit("status"),
                    return_exceptions=True,
                )
                snap = service.registry.as_dict()
                assert snap["counters"]["service:service_backpressure"] == 1

        asyncio.run(scenario())


    def test_refused_submission_consumes_a_seq(self, tmp_path):
        """``seq`` numbers submissions, not served requests: a refusal
        takes one, so the served seqs skip exactly the seqs of the
        ``service_backpressure`` events -- and replay still matches."""
        path = tmp_path / "events.jsonl"

        async def scenario():
            observer = EventDispatcher()
            observer.add_sink(JsonlEventLog(path))
            service = AdmissionService(
                config(), queue_depth=1, observer=observer
            )
            async with service:
                burst = await asyncio.gather(
                    *(service.submit("status") for _ in range(4)),
                    return_exceptions=True,
                )
                late = await service.submit("status")
            observer.close()
            replies = [r for r in burst if not isinstance(r, Exception)]
            return service, [r.seq for r in replies + [late]]

        service, reply_seqs = asyncio.run(scenario())
        events = list(iter_jsonl(path))
        refused = [
            e["seq"] for e in events if e["kind"] == "service_backpressure"
        ]
        served = [e["seq"] for e in events if e["kind"] == "service_request"]
        assert refused == [2, 3, 4]
        assert served == reply_seqs == [1, 5]
        summary = summarise_log(path)
        assert summary.service_backpressure == service.backpressure_total == 3
        assert dict(summary.service_requests) == dict(service.request_totals)


class TestCleanShutdown:
    def test_stop_drains_accepted_backlog(self):
        """Every request the queue accepted is served before stop()
        returns -- shutdown sheds nothing it took ownership of."""

        async def scenario():
            service = AdmissionService(config(), queue_depth=16)
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit("status"))
                for _ in range(8)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            await service.stop()
            replies = await asyncio.gather(*tasks)
            assert len(replies) == 8
            assert all(r.outcome == "accepted" for r in replies)
            assert service.request_totals["status:accepted"] == 8

        asyncio.run(scenario())

    def test_latency_percentiles_cover_served_requests(self):
        async def scenario():
            async with AdmissionService(config()) as service:
                client = AdmissionClient(service)
                for _ in range(10):
                    await client.status()
                stats = service.latency_percentiles()
                assert stats["count"] == 10
                assert 0 <= stats["p50_s"] <= stats["p99_s"]
                summary = service.summary()
                assert summary["requests_served"] == 10
                assert summary["backpressure"] == 0

        asyncio.run(scenario())


    def test_latency_window_is_bounded(self):
        """A long-running service keeps a fixed window of its most recent
        latencies: after 10^5 recorded operations it holds exactly
        ``LATENCY_WINDOW`` of them (the last ones, oldest first), and the
        percentiles are the window's."""
        assert LATENCY_WINDOW >= 65_536
        service = AdmissionService(config())
        recorded = [(i * 7919 % 100_003) / 1e6 for i in range(100_000)]
        for latency in recorded:
            service.latencies_s.append(latency)
        window = recorded[-LATENCY_WINDOW:]
        assert list(service.latencies_s) == window
        stats = service.latency_percentiles()
        assert stats["count"] == LATENCY_WINDOW
        assert stats["p50_s"] == percentile(sorted(window), 0.50)
        assert stats["p99_s"] == percentile(sorted(window), 0.99)
        assert stats["p99_s"] != percentile(sorted(recorded), 0.99)


class TestCancelledCaller:
    def test_open_cancelled_while_queued_is_still_served(self, tmp_path):
        """The service owns a request once it is queued: a caller that
        gives up does not unserve it, and the worker skips the reply
        instead of failing on the cancelled future."""
        path = tmp_path / "events.jsonl"

        async def scenario():
            observer = EventDispatcher()
            observer.add_sink(JsonlEventLog(path))
            service = AdmissionService(config(), observer=observer)
            async with service:
                client = AdmissionClient(service)
                c = conn(10, 1)
                ahead = asyncio.ensure_future(service.submit("status"))
                queued = asyncio.ensure_future(client.open_lrtc(c))
                await asyncio.sleep(0)  # both submits enqueue
                assert not service.request_totals  # nothing served yet
                queued.cancel()
                await ahead
                with pytest.raises(asyncio.CancelledError):
                    await queued
                # Bounded: a worker that died on the cancelled future
                # would leave this status unanswered.
                status = await asyncio.wait_for(client.status(), 5)
                assert service.running
                assert status.admitted == 1
                assert service.request_totals["open:accepted"] == 1
            observer.close()
            return service

        service = asyncio.run(scenario())
        summary = summarise_log(path)
        assert dict(summary.service_requests) == dict(service.request_totals)
        assert summary.service_utilisation == service.controller.utilisation


class TestWorkerCrash:
    def test_crash_fails_pending_and_closes_service(self, monkeypatch):
        def crash(self, request, submitted_at, depth):
            raise RuntimeError("ring state corrupted")

        monkeypatch.setattr(AdmissionService, "_serve", crash)

        async def scenario():
            service = AdmissionService(config())
            await service.start()
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(service.submit("status") for _ in range(3)),
                    return_exceptions=True,
                ),
                1,
            )
            assert [type(r) for r in results] == [ServiceFailed] * 3
            assert all(isinstance(r.__cause__, RuntimeError) for r in results)
            assert not service.running
            with pytest.raises(ServiceClosed):
                await service.submit("status")
            await asyncio.wait_for(service.stop(), 1)

        asyncio.run(scenario())

    def test_crash_outside_serve_fails_every_waiter(self):
        """A fault in the worker loop around ``_serve`` (here the queue
        depth read) fails the current and the queued submissions too."""

        def broken_qsize():
            raise RuntimeError("queue state corrupted")

        async def scenario():
            service = AdmissionService(config())
            await service.start()
            queue = service._queue
            queue.full = lambda: False  # keeps submit() off qsize()
            queue.qsize = broken_qsize
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(service.submit("status") for _ in range(3)),
                    return_exceptions=True,
                ),
                1,
            )
            assert [type(r) for r in results] == [ServiceFailed] * 3
            assert all(isinstance(r.__cause__, RuntimeError) for r in results)
            assert not service.running
            await asyncio.wait_for(service.stop(), 1)

        asyncio.run(scenario())
