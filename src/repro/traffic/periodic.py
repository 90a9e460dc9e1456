"""Periodic traffic: logical real-time connections as sources.

Also provides random LRTC-set generators for the load sweeps: the
UUniFast algorithm (Bini & Buttazzo) draws ``n`` per-connection
utilisations summing exactly to a target ``U``, the standard way to
generate unbiased periodic task sets for schedulability experiments.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.connection import LogicalRealTimeConnection
from repro.core.messages import Message
from repro.traffic.base import TrafficSource


class ConnectionSource(TrafficSource):
    """Releases the periodic messages of one admitted LRTC.

    Connections are assumed well behaved (Section 6); this source releases
    exactly one message per period, starting at the connection's phase.
    An optional ``active_from``/``active_until`` window supports runtime
    connection set-up and tear-down experiments.
    """

    def __init__(
        self,
        connection: LogicalRealTimeConnection,
        active_from: int = 0,
        active_until: int | None = None,
    ):
        if active_until is not None and active_until < active_from:
            raise ValueError(
                f"active window is empty: [{active_from}, {active_until})"
            )
        self.node = connection.source
        self.connection = connection
        self.active_from = active_from
        self.active_until = active_until

    def messages_for_slot(self, slot: int) -> list[Message]:
        if slot < self.active_from:
            return []
        if self.active_until is not None and slot >= self.active_until:
            return []
        if self.connection.releases_at(slot):
            return [self.connection.release_message(slot)]
        return []

    def next_release_slot(self, after: int) -> int | None:
        """Exact next release: periodic sources are fully predictable."""
        start = max(after, self.active_from)
        if self.active_until is not None and start >= self.active_until:
            return None
        nxt = self.connection.next_release_at_or_after(start)
        if self.active_until is not None and nxt >= self.active_until:
            return None
        return nxt


def uunifast(rng: np.random.Generator, n: int, total_utilisation: float) -> list[float]:
    """Draw ``n`` utilisations summing to ``total_utilisation`` (UUniFast).

    Produces an unbiased uniform sample over the simplex of utilisation
    vectors -- the standard generator for schedulability studies.
    """
    if n < 1:
        raise ValueError(f"need at least one connection, got {n}")
    if not 0 < total_utilisation < math.inf:
        raise ValueError(
            f"total utilisation must be finite and positive, got {total_utilisation}"
        )
    utilisations = []
    remaining = total_utilisation
    for i in range(n - 1):
        next_remaining = remaining * rng.random() ** (1.0 / (n - 1 - i))
        utilisations.append(remaining - next_remaining)
        remaining = next_remaining
    utilisations.append(remaining)
    return utilisations


def random_connection_set(
    rng: np.random.Generator,
    n_nodes: int,
    n_connections: int,
    total_utilisation: float,
    period_range: tuple[int, int] = (10, 1000),
    multicast_probability: float = 0.0,
    random_phases: bool = True,
) -> list[LogicalRealTimeConnection]:
    """Generate a random LRTC set with the given total utilisation.

    Per connection: a UUniFast utilisation share, a log-uniform period in
    ``period_range`` (the conventional distribution, so short and long
    periods are equally represented), a message size
    ``e_i = max(1, round(U_i * P_i))`` (periods are enlarged when rounding
    up to one slot would overshoot the share), uniformly random distinct
    source/destination nodes, and optionally a multicast destination set.

    The achieved total utilisation can deviate slightly from the request
    because sizes are integral; callers needing an exact load use
    :func:`repro.traffic.sweeps.scale_connections_to_utilisation`.
    """
    if n_nodes < 2:
        raise ValueError(f"a ring needs at least 2 nodes, got {n_nodes}")
    if not (0 <= multicast_probability <= 1):
        raise ValueError(
            f"multicast probability must be in [0, 1], got {multicast_probability}"
        )
    lo, hi = period_range
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid period range {period_range}")

    shares = uunifast(rng, n_connections, total_utilisation)
    log_lo, log_hi = _log_period_range(lo, hi)
    # The generator calls below are the stream every run key and digest
    # rests on (pinned by tests/traffic/test_golden_draws.py): the same
    # calls in the same order with the same arguments.  Only the work
    # between them is plain Python: ``round`` of a numpy float runs
    # numpy's rounding, while the equal Python float rounds in C
    # (both half-to-even).
    uniform, integers, random = rng.uniform, rng.integers, rng.random
    exp = np.exp
    connections = []
    for u in shares:
        period = round(float(exp(uniform(log_lo, log_hi))))
        period = max(lo, min(hi, period))
        size = max(1, round(u * period))
        if size > period:
            size = period
        # If rounding a tiny share up to 1 slot overshoots badly, stretch
        # the period to keep the achieved utilisation near the share.
        if u > 0 and size / period > 2 * u and size == 1:
            period = min(hi, max(lo, round(1.0 / u)))
        source = int(integers(n_nodes))
        if random() < multicast_probability and n_nodes > 2:
            k = int(integers(2, n_nodes))
            others = [n for n in range(n_nodes) if n != source]
            dsts = frozenset(
                int(x) for x in rng.choice(others, size=min(k, len(others)), replace=False)
            )
        else:
            dst = int(integers(n_nodes - 1))
            if dst >= source:
                dst += 1
            dsts = frozenset((dst,))
        phase = int(integers(period)) if random_phases else 0
        connections.append(
            LogicalRealTimeConnection(source, dsts, period, size, phase)
        )
    return connections


@functools.lru_cache(maxsize=16)
def _log_period_range(lo: int, hi: int) -> tuple[np.float64, np.float64]:
    """``np.log`` of a period range's bounds, the log-uniform draw's
    arguments (numpy floats, as they always were)."""
    return np.log(lo), np.log(hi)
