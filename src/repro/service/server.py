"""The live asyncio admission-control service.

:class:`AdmissionService` hosts one simulated ring and serves
open/close/status/suspend/resume requests against it.  The design maps
the paper's Section 6 directly onto asyncio:

* **One designated node.**  All requests -- no matter how many clients
  submit concurrently -- drain through a single worker coroutine that
  drives one :class:`~repro.services.api.ConnectionClient` against the
  hosted simulation; open, close, suspend and resume are its verbs, and
  ``status`` reads the controller.  The worker *is* the designated
  admission node: requests are served strictly one at a time in arrival
  order, exactly the serialisation
  :class:`~repro.core.admission.AdmissionController` assumes
  ("thread-unsafe by design").
* **Bounded queue, explicit backpressure.**  The request queue holds at
  most ``queue_depth`` requests.  A submission against a full queue
  fails synchronously with the typed
  :class:`~repro.service.messages.ServiceBackpressure` rejection -- it
  never blocks, so an overloaded service degrades into fast, accountable
  refusals instead of unbounded latency.
* **Every decision is an event.**  Served requests and backpressure
  refusals stream through the PR 3 event layer
  (:class:`~repro.obs.events.ServiceRequestServed` /
  :class:`~repro.obs.events.ServiceBackpressureApplied`) interleaved
  with the hosted ring's own simulator events, so
  :func:`repro.obs.replay.replay_events` reconstructs the live service's
  totals -- request counts by op/outcome, backpressure count, final
  admitted utilisation -- bit-identically from the log alone.

Host-clock reads here measure *service latency* (a property of the host
event loop, deliberately outside the slot domain); the hosted ring's
results still derive only from the slot counter.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.connection import LogicalRealTimeConnection
from repro.obs.events import (
    EventDispatcher,
    ServiceBackpressureApplied,
    ServiceRequestServed,
)
from repro.obs.registry import MetricRegistry
from repro.service.messages import (
    ServiceBackpressure,
    ServiceClosed,
    ServiceFailed,
    ServiceReply,
    ServiceRequest,
    ServiceStatus,
)
from repro.services.api import ConnectionClient, MessageInjector
from repro.sim.engine import Simulation
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation

#: One queued request: (request, reply future, submission timestamp).
_QueueItem = tuple[ServiceRequest, "asyncio.Future[ServiceReply]", float]


def percentile(sorted_values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending list, nearest-rank.

    Nearest-rank keeps the value an actual observation (p99 of 100
    samples is the 99th), which is what a latency SLO wants; returns
    ``nan`` on an empty series.
    """
    if not sorted_values:
        return float("nan")
    if q <= 0:
        return sorted_values[0]
    rank = int(q * len(sorted_values) + 0.999999) - 1
    return sorted_values[min(max(rank, 0), len(sorted_values) - 1)]


class AdmissionService:
    """A long-running admission-control service over a hosted ring.

    Usage::

        service = AdmissionService(ScenarioConfig(n_nodes=8))
        async with service:                      # start()/stop()
            client = AdmissionClient(service)
            reply = await client.open_lrtc(conn)

    The service owns the simulation: it is built on ``start()`` from the
    scenario (with admission control and the given observer attached)
    and driven only by the worker coroutine, so no lock is ever needed.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        admission_node: int = 0,
        queue_depth: int = 64,
        observer: EventDispatcher | None = None,
        registry: MetricRegistry | None = None,
        engine: str | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.config = config
        self.admission_node = admission_node
        self.queue_depth = queue_depth
        self.observer = observer
        self.registry = registry if registry is not None else MetricRegistry()
        self.engine = engine
        #: Live totals by ``"op:outcome"`` -- the values log replay must
        #: reproduce (see :attr:`repro.obs.replay.LogSummary.service_requests`).
        self.request_totals: Counter[str] = Counter()
        #: Queue-full refusals issued so far.
        self.backpressure_total = 0
        #: Host-side per-request service latencies, submit to reply.
        self.latencies_s: list[float] = []
        self._seq = 0
        self._closing = False
        self._queue: "asyncio.Queue[_QueueItem | None] | None" = None
        self._worker_task: "asyncio.Task[None] | None" = None
        self.sim: Simulation | None = None
        self.controller: AdmissionController | None = None
        self._client: ConnectionClient | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "AdmissionService":
        """Build the hosted ring and start the worker coroutine."""
        if self._worker_task is not None:
            raise RuntimeError("service already started")
        n = self.config.n_nodes
        injectors = {i: MessageInjector(i) for i in range(n)}
        options = RunOptions(
            extra_sources=tuple(injectors.values()),
            with_admission=True,
            observer=self.observer,
            engine=self.engine,
        )
        self.sim = build_simulation(self.config, options)
        self.controller = self.sim.admission
        self._client = ConnectionClient(
            self.sim, self.controller, self.admission_node, injectors
        )
        self._closing = False
        queue: "asyncio.Queue[_QueueItem | None]" = asyncio.Queue(
            maxsize=self.queue_depth
        )
        self._queue = queue
        self._worker_task = asyncio.ensure_future(self._worker(queue))
        return self

    async def stop(self) -> None:
        """Drain the queue, then stop the worker (idempotent).

        Every request already accepted into the queue is served before
        shutdown completes -- "clean" means no request is dropped after
        the service took ownership of it.
        """
        task, queue = self._worker_task, self._queue
        if task is None or queue is None:
            return
        # Claim-first: detach the worker/queue handles *before* any
        # await, so a concurrent stop() (or a submit racing shutdown)
        # sees a consistent not-running service rather than interleaving
        # with a half-torn-down one at the awaits below.
        self._closing = True
        self._worker_task = None
        self._queue = None
        await queue.put(None)  # sentinel after the backlog
        await task

    async def __aenter__(self) -> "AdmissionService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Whether the worker is accepting requests."""
        return self._worker_task is not None and not self._closing

    # -- submission (client-facing) ------------------------------------

    async def submit(
        self,
        op: str,
        connection: LogicalRealTimeConnection | None = None,
        connection_id: int | None = None,
        node: int | None = None,
    ) -> ServiceReply:
        """Submit one operation; await its reply.

        Raises :class:`ServiceBackpressure` *immediately* when the
        bounded queue is full and :class:`ServiceClosed` when the
        service is not running -- an admitted submission is always
        served (see :meth:`stop`), unless the worker itself crashes, in
        which case it raises :class:`ServiceFailed`.
        """
        if not self.running:
            raise ServiceClosed("admission service is not running")
        self._seq += 1
        request = ServiceRequest(
            seq=self._seq,
            op=op,
            connection=connection,
            connection_id=connection_id,
            node=node,
        )
        queue = self._queue
        assert queue is not None  # running implies a live queue
        if queue.full():
            self.backpressure_total += 1
            self.registry.inc("service:service_backpressure")
            if self.observer is not None:
                self.observer.emit(
                    ServiceBackpressureApplied(
                        seq=request.seq,
                        op=request.op,
                        queue_depth=queue.qsize(),
                        max_depth=self.queue_depth,
                    )
                )
            raise ServiceBackpressure(
                request.op, queue.qsize(), self.queue_depth
            )
        future: "asyncio.Future[ServiceReply]" = (
            asyncio.get_running_loop().create_future()
        )
        # Submission timestamp for host-side service latency -- a
        # property of the event loop, deliberately off the slot domain.
        queue.put_nowait(
            (request, future, time.perf_counter())
        )
        return await future

    # -- the designated admission node ---------------------------------

    async def _worker(
        self, queue: "asyncio.Queue[_QueueItem | None]"
    ) -> None:
        """Serve queued requests strictly one at a time, in order.

        The queue is passed in rather than read off ``self``: stop()
        detaches ``self._queue`` before the drain, and the worker must
        keep serving the backlog it already claimed.
        """
        while True:
            item = await queue.get()
            if item is None:
                break
            request, future, submitted_at = item
            depth = queue.qsize()
            try:
                reply = self._serve(request, submitted_at, depth)
            except Exception as exc:
                # Not one of the errors _serve answers with a reply: the
                # hosted ring can no longer be trusted, so serve nothing
                # further and leave no caller awaiting.
                self._abandon(queue, future, exc)
                return
            if not future.done():
                future.set_result(reply)
            # Yield so replies interleave with new submissions even when
            # the queue never empties under sustained load.
            await asyncio.sleep(0)

    def _abandon(
        self,
        queue: "asyncio.Queue[_QueueItem | None]",
        current: "asyncio.Future[ServiceReply]",
        cause: Exception,
    ) -> None:
        """Fail ``current`` and the whole backlog with :class:`ServiceFailed`
        and refuse later submissions (:attr:`running` turns false)."""
        self._closing = True
        waiting = [current]
        while not queue.empty():
            item = queue.get_nowait()
            if item is not None:  # stop()'s sentinel
                waiting.append(item[1])
        for future in waiting:
            if not future.done():
                failure = ServiceFailed(
                    f"admission worker crashed: {type(cause).__name__}: {cause}"
                )
                failure.__cause__ = cause
                future.set_exception(failure)

    def _serve(
        self, request: ServiceRequest, submitted_at: float, depth: int
    ) -> ServiceReply:
        """Serve one request synchronously against the hosted ring."""
        assert self.sim is not None  # started before the worker runs
        assert self.controller is not None
        assert self._client is not None
        decision: AdmissionDecision | None = None
        resumed: tuple[AdmissionDecision, ...] = ()
        slots_used = 0
        error: str | None = None
        try:
            if request.op == "open":
                if request.connection is None:
                    raise ValueError("'open' request carries no connection")
                result = self._client.open_lrtc(request.connection)
                decision = result.decision
                slots_used = result.slots_used
                outcome = (
                    "accepted"
                    if decision is not None and decision.accepted
                    else "rejected"
                )
            elif request.op == "close":
                if request.connection_id is None:
                    raise ValueError("'close' request carries no connection_id")
                result = self._client.close_lrtc(request.connection_id)
                slots_used = result.slots_used
                outcome = "accepted"
            elif request.op == "suspend":
                if request.node is None:
                    raise ValueError("'suspend' request carries no node")
                self._client.suspend_node(request.node)
                outcome = "accepted"
            elif request.op == "resume":
                if request.node is None:
                    raise ValueError("'resume' request carries no node")
                resumed = self._client.resume_node(request.node)
                decision = resumed[-1] if resumed else None
                outcome = (
                    "accepted"
                    if all(d.accepted for d in resumed)
                    else "rejected"
                )
            else:  # "status" (ServiceRequest already validated op)
                outcome = "accepted"
        except (KeyError, ValueError, TimeoutError) as exc:
            outcome = "error"
            error = f"{type(exc).__name__}: {exc}"
        latency_s = time.perf_counter() - submitted_at
        utilisation = self.controller.utilisation
        self.request_totals[f"{request.op}:{outcome}"] += 1
        self.latencies_s.append(latency_s)
        self.registry.inc("service:service_request")
        self.registry.inc(f"service:service_request:{request.op}:{outcome}")
        self.registry.observe("service:latency_s", latency_s)
        self.registry.observe("service:queue_depth", depth)
        if self.observer is not None:
            self.observer.emit(
                ServiceRequestServed(
                    seq=request.seq,
                    slot=self.sim.current_slot,
                    op=request.op,
                    outcome=outcome,
                    utilisation=utilisation,
                    queue_depth=depth,
                    latency_s=latency_s,
                )
            )
        return ServiceReply(
            seq=request.seq,
            op=request.op,
            outcome=outcome,
            status=self.snapshot(),
            decision=decision,
            slots_used=slots_used,
            latency_s=latency_s,
            error=error,
            resumed=resumed,
        )

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> ServiceStatus:
        """The hosted ring's current admission state."""
        assert self.sim is not None and self.controller is not None
        return ServiceStatus(
            slot=self.sim.current_slot,
            utilisation=self.controller.utilisation,
            u_max=self.controller.u_max,
            admitted=len(self.controller.accepted_connections),
            suspended=len(self.controller.suspended_connections),
        )

    def latency_percentiles(self) -> dict[str, float]:
        """Host-side service-latency summary (p50/p99, seconds)."""
        ordered = sorted(self.latencies_s)
        return {
            "count": len(ordered),
            "p50_s": percentile(ordered, 0.50),
            "p99_s": percentile(ordered, 0.99),
        }

    def summary(self) -> dict[str, object]:
        """Manifest-ready live totals (the replay cross-check values)."""
        assert self.sim is not None and self.controller is not None
        return {
            "requests": {
                k: self.request_totals[k] for k in sorted(self.request_totals)
            },
            "requests_served": sum(self.request_totals.values()),
            "backpressure": self.backpressure_total,
            "utilisation": self.controller.utilisation,
            "slot": self.sim.current_slot,
            "latency": self.latency_percentiles(),
        }
