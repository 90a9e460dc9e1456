"""Churn driver: arrival/departure storms against the live service.

:class:`ChurnDriver` plays one client's workload: bursts of connection
opens and closes from a seeded RNG (reproducible storms), with periodic
fault cycles that suspend a node and later resume it, exercising the
PR 1 suspend/re-admission path through the service API.  Several
drivers with derived seeds typically share one service (``repro churn
--clients N``), which is what pushes the bounded queue into visible
backpressure.

Everything here is slot-domain or count-domain: the driver never reads
the host clock (rates are computed by the CLI from its own elapsed
time), so a churn run's decision sequence is reproducible from
``(seed, cycles, knobs)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.connection import LogicalRealTimeConnection
from repro.service.client import AdmissionClient
from repro.service.messages import ServiceBackpressure


@dataclass
class ChurnStats:
    """Outcome counts of one driver's run (mergeable by addition)."""

    opens: int = 0
    open_accepted: int = 0
    open_rejected: int = 0
    closes: int = 0
    suspends: int = 0
    resumes: int = 0
    resume_rejected: int = 0
    backpressure: int = 0
    errors: int = 0
    #: Connection ids still open when the run ended.
    still_open: tuple[int, ...] = field(default=())

    @property
    def operations(self) -> int:
        """Requests that reached the service plus typed refusals."""
        return (
            self.opens
            + self.closes
            + self.suspends
            + self.resumes
            + self.backpressure
        )

    def merge(self, other: "ChurnStats") -> None:
        """Fold another driver's stats in (addition; order-free)."""
        self.opens += other.opens
        self.open_accepted += other.open_accepted
        self.open_rejected += other.open_rejected
        self.closes += other.closes
        self.suspends += other.suspends
        self.resumes += other.resumes
        self.resume_rejected += other.resume_rejected
        self.backpressure += other.backpressure
        self.errors += other.errors
        self.still_open = self.still_open + other.still_open

    def as_dict(self) -> dict[str, int]:
        """Manifest-ready summary (open pool reduced to its size)."""
        return {
            "operations": self.operations,
            "opens": self.opens,
            "open_accepted": self.open_accepted,
            "open_rejected": self.open_rejected,
            "closes": self.closes,
            "suspends": self.suspends,
            "resumes": self.resumes,
            "resume_rejected": self.resume_rejected,
            "backpressure": self.backpressure,
            "errors": self.errors,
            "still_open": len(self.still_open),
        }


class ChurnDriver:
    """One client's reproducible arrival/departure/fault workload.

    Each *cycle* issues a burst of 1..``burst`` operations: an open of a
    randomly-parameterised connection, or (with probability
    ``close_fraction``, when this driver holds open connections) a close
    of a random one of them.  Every ``fault_every`` cycles the driver
    suspends a random non-admission node and resumes it at the *next*
    fault point, so suspended utilisation is up for grabs in between --
    exactly the re-admission race Section 6 implies.  Backpressure
    refusals are counted and the operation dropped (the storm does not
    retry; load shedding is the service's contract).
    """

    def __init__(
        self,
        client: AdmissionClient,
        seed: int,
        n_nodes: int,
        admission_node: int = 0,
        burst: int = 4,
        close_fraction: float = 0.4,
        fault_every: int = 0,
        period_range: tuple[int, int] = (20, 200),
        size_range: tuple[int, int] = (1, 2),
    ) -> None:
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if not 0.0 <= close_fraction <= 1.0:
            raise ValueError(
                f"close_fraction must be in [0, 1], got {close_fraction}"
            )
        if fault_every < 0:
            raise ValueError(f"fault_every must be >= 0, got {fault_every}")
        self.client = client
        self.rng = random.Random(seed)
        self.n_nodes = n_nodes
        self.admission_node = admission_node
        self.burst = burst
        self.close_fraction = close_fraction
        self.fault_every = fault_every
        self.period_range = period_range
        self.size_range = size_range
        self.stats = ChurnStats()
        self._open_ids: list[int] = []
        self._down_node: int | None = None
        self._cycle = 0

    def _random_connection(self) -> LogicalRealTimeConnection:
        """A randomly-parameterised connection from the seeded RNG."""
        source = self.rng.randrange(self.n_nodes)
        dst = self.rng.randrange(self.n_nodes - 1)
        if dst >= source:
            dst += 1
        return LogicalRealTimeConnection(
            source=source,
            destinations=frozenset([dst]),
            period_slots=self.rng.randint(*self.period_range),
            size_slots=self.rng.randint(*self.size_range),
        )

    async def _one_operation(self) -> None:
        close = (
            self._open_ids
            and self.rng.random() < self.close_fraction
        )
        try:
            if close:
                cid = self._open_ids.pop(
                    self.rng.randrange(len(self._open_ids))
                )
                self.stats.closes += 1
                reply = await self.client.close_lrtc(cid)
                if reply.outcome == "error":
                    self.stats.errors += 1
            else:
                conn = self._random_connection()
                self.stats.opens += 1
                reply = await self.client.open_lrtc(conn)
                if reply.accepted:
                    self.stats.open_accepted += 1
                    self._open_ids.append(conn.connection_id)
                elif reply.outcome == "rejected":
                    self.stats.open_rejected += 1
                else:
                    self.stats.errors += 1
        except ServiceBackpressure:
            self.stats.backpressure += 1

    async def _fault_cycle(self) -> None:
        """Alternate suspend and resume of a random victim node."""
        # Claim-first: the suspend/resume phase toggles *before* each
        # await, so no other coroutine interleaving at the await can
        # observe (or clobber) a half-finished fault cycle.  On
        # backpressure the phase stays toggled -- deterministic, and the
        # dropped operation is simply retried at the next fault point.
        try:
            if self._down_node is None:
                victim = self.rng.randrange(self.n_nodes - 1)
                if victim >= self.admission_node:
                    victim += 1
                self.stats.suspends += 1
                self._down_node = victim
                await self.client.suspend_node(victim)
            else:
                victim = self._down_node
                self._down_node = None
                self.stats.resumes += 1
                reply = await self.client.resume_node(victim)
                if reply.outcome == "rejected":
                    self.stats.resume_rejected += 1
        except ServiceBackpressure:
            self.stats.backpressure += 1

    async def run(self, cycles: int) -> ChurnStats:
        """Play ``cycles`` churn cycles; returns the accumulated stats.

        Resumable: repeated calls continue the same storm (the cycle
        counter driving ``fault_every`` persists across calls).
        """
        # Claim the cycle numbers before the first await: the persistent
        # counter updates exactly once, so an interleaved run() on the
        # same driver cannot lose cycle numbers to a read-await-write
        # window (the loop itself works on locals only).
        first = self._cycle + 1
        self._cycle += cycles
        for cycle in range(first, first + cycles):
            if self.fault_every and cycle % self.fault_every == 0:
                await self._fault_cycle()
            for _ in range(self.rng.randint(1, self.burst)):
                await self._one_operation()
        self.stats.still_open = tuple(self._open_ids)
        return self.stats

    async def run_until_ops(
        self, min_ops: int, cycle_chunk: int = 8
    ) -> ChurnStats:
        """Keep playing cycles until at least ``min_ops`` operations.

        The load-harness entry point: ``repro churn --ops N`` splits its
        target across clients and each driver churns until its share is
        met (the final burst may overshoot by at most one chunk).
        """
        while self.stats.operations < min_ops:
            await self.run(cycle_chunk)
        return self.stats
