"""Measurement: per-message and per-slot accounting.

The collector observes every message release, delivery and drop, and
every executed slot, and reduces them into a :class:`SimulationReport` --
the object all experiments read their numbers from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.obs.registry import MetricRegistry


@dataclass
class ConnectionStats:
    """Aggregates for one logical real-time connection.

    Latency *jitter* (the spread between fastest and slowest delivery)
    matters to streaming applications at least as much as the mean; both
    are derived here per connection.
    """

    connection_id: int
    released: int = 0
    delivered: int = 0
    dropped: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    latencies_slots: list[int] = field(default_factory=list)

    @property
    def deadline_miss_ratio(self) -> float:
        """Missed deadlines (incl. drops) over all decided messages."""
        denom = self.deadline_met + self.deadline_missed
        if denom == 0:
            return 0.0
        return self.deadline_missed / denom

    @property
    def mean_latency_slots(self) -> float:
        """Mean delivery latency in slots (NaN before any delivery)."""
        if not self.latencies_slots:
            return float("nan")
        return float(np.mean(self.latencies_slots))

    @property
    def jitter_slots(self) -> int:
        """Peak-to-peak delivery latency spread."""
        if len(self.latencies_slots) < 2:
            return 0
        return int(max(self.latencies_slots) - min(self.latencies_slots))

    @property
    def latency_std_slots(self) -> float:
        """Standard deviation of delivery latencies, in slots."""
        if len(self.latencies_slots) < 2:
            return 0.0
        return float(np.std(self.latencies_slots))


@dataclass
class ClassStats:
    """Aggregates for one traffic class."""

    released: int = 0
    delivered: int = 0
    dropped: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    #: Subset of :attr:`deadline_missed` recorded while the engine was
    #: inside a fault window (recovering from a fault, or purging the
    #: queue of a rejoining node) -- misses attributable to faults
    #: rather than to ordinary overload.
    deadline_missed_in_fault_window: int = 0
    #: Delivery latencies in slots (completion - creation + 1, i.e. the
    #: number of slots the message spanned).
    latencies_slots: list[int] = field(default_factory=list)

    @property
    def deadline_miss_ratio(self) -> float:
        """Missed deadlines (incl. drops of deadline traffic) / released.

        0.0 when nothing with a deadline was released.
        """
        denom = self.deadline_met + self.deadline_missed
        if denom == 0:
            return 0.0
        return self.deadline_missed / denom

    @property
    def mean_latency_slots(self) -> float:
        """Mean delivery latency in slots (NaN before any delivery)."""
        if not self.latencies_slots:
            return float("nan")
        return float(np.mean(self.latencies_slots))

    @property
    def max_latency_slots(self) -> float:
        """Largest delivery latency observed, in slots.

        NaN before any delivery -- a real maximum of 0 slots is
        impossible (latency counts at least the delivery slot itself), so
        the old ``0`` sentinel silently read as a perfect latency.
        """
        if not self.latencies_slots:
            return float("nan")
        return float(max(self.latencies_slots))

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of delivery latencies, in slots.

        ``q`` follows :func:`numpy.percentile`'s convention: a percentage
        in ``[0, 100]`` (so the median is ``q=50``, not ``q=0.5``).
        NaN before any delivery.
        """
        if not 0 <= q <= 100:
            raise ValueError(
                f"q is a percentage in [0, 100] (the median is q=50), got {q}"
            )
        if not self.latencies_slots:
            return float("nan")
        return float(np.percentile(self.latencies_slots, q))


@dataclass
class AvailabilityStats:
    """Fault and recovery accounting of one simulation run.

    Separates three orthogonal quantities: what went wrong
    (:attr:`fault_events`, by kind), what the protocol did about it
    (:attr:`recoveries` and their cost), and how node capacity evolved
    (failures, rejoins, downtime).
    """

    #: Injected fault occurrences by kind (``"collection_loss"``,
    #: ``"distribution_loss"``, ``"clock_glitch"``, ``"node_failure"``).
    fault_events: Counter = field(default_factory=Counter)
    #: Timeout takeovers performed by the designated node.
    recoveries: int = 0
    #: Slots whose data capacity was voided by faults (recovery slots
    #: plus arbitration rounds lost to collection-packet loss).
    slots_lost: int = 0
    #: Wall-clock time spent waiting out recovery timeouts [s].
    recovery_time_s: float = 0.0
    #: Node fail-stop transitions observed.
    node_failures: int = 0
    #: Node repair/rejoin transitions observed.
    node_rejoins: int = 0
    #: Sum over slots of the number of dead nodes during that slot.
    node_downtime_slots: int = 0

    @property
    def total_fault_events(self) -> int:
        """All injected fault occurrences, regardless of kind."""
        return sum(self.fault_events.values())

    @property
    def mean_time_to_recover_s(self) -> float:
        """Mean timeout paid per recovery (NaN before any recovery)."""
        if self.recoveries == 0:
            return float("nan")
        return self.recovery_time_s / self.recoveries


@dataclass
class SimulationReport:
    """Everything one simulation run measured."""

    n_nodes: int
    slots_simulated: int = 0
    #: Accumulated wall-clock time [s]: slot durations + hand-over gaps.
    wall_time_s: float = 0.0
    #: Time spent inside slots (data-carrying time) [s].
    slot_time_s: float = 0.0
    #: Time spent in inter-slot hand-over gaps [s].
    gap_time_s: float = 0.0
    #: Slots in which at least one packet was transmitted.
    busy_slots: int = 0
    #: Total data-packets transmitted.
    packets_sent: int = 0
    #: Grants that went unused.
    wasted_grants: int = 0
    #: Requests denied because their path crossed the clock break.
    break_denials: int = 0
    #: Hand-over hop distances, one per executed slot (0 = master kept).
    handover_hops: Counter = field(default_factory=Counter)
    #: How many slots each node spent as master.
    master_slots: Counter = field(default_factory=Counter)
    per_class: dict[TrafficClass, ClassStats] = field(
        default_factory=lambda: {tc: ClassStats() for tc in TrafficClass}
    )
    #: Per-connection aggregates, keyed by connection id (RT class only).
    per_connection: dict[int, ConnectionStats] = field(default_factory=dict)
    #: Fault and recovery accounting (all zero on fault-free runs).
    availability_stats: AvailabilityStats = field(
        default_factory=AvailabilityStats
    )

    # ------------------------------------------------------------------

    @property
    def spatial_reuse_factor(self) -> float:
        """Mean simultaneous transmissions per busy slot (>= 1)."""
        if self.busy_slots == 0:
            return float("nan")
        return self.packets_sent / self.busy_slots

    @property
    def throughput_packets_per_slot(self) -> float:
        """Packets per simulated slot (aggregate, all segments)."""
        if self.slots_simulated == 0:
            return float("nan")
        return self.packets_sent / self.slots_simulated

    @property
    def throughput_packets_per_s(self) -> float:
        """Packets per second of simulated wall-clock time."""
        if self.wall_time_s == 0:
            return float("nan")
        return self.packets_sent / self.wall_time_s

    @property
    def utilisation(self) -> float:
        """Fraction of wall time inside data slots (upper-bounded by the
        analytical ``U_max`` when every gap is worst case)."""
        if self.wall_time_s == 0:
            return float("nan")
        return self.slot_time_s / self.wall_time_s

    @property
    def mean_gap_s(self) -> float:
        """Mean inter-slot hand-over gap across the run."""
        if self.slots_simulated == 0:
            return float("nan")
        return self.gap_time_s / self.slots_simulated

    def class_stats(self, traffic_class: TrafficClass) -> ClassStats:
        """Aggregates for one traffic class."""
        return self.per_class[traffic_class]

    def connection_stats(self, connection_id: int) -> ConnectionStats:
        """Aggregates for one connection (present once it released)."""
        try:
            return self.per_connection[connection_id]
        except KeyError:
            raise KeyError(
                f"connection {connection_id} released no messages in this run"
            ) from None

    @property
    def total_released(self) -> int:
        """Messages released across all classes."""
        return sum(s.released for s in self.per_class.values())

    @property
    def total_delivered(self) -> int:
        """Messages delivered across all classes."""
        return sum(s.delivered for s in self.per_class.values())

    @property
    def total_missed(self) -> int:
        """Deadline misses across all classes (deliveries and drops)."""
        return sum(s.deadline_missed for s in self.per_class.values())

    @property
    def total_dropped(self) -> int:
        """Messages dropped across all classes."""
        return sum(s.dropped for s in self.per_class.values())

    @property
    def availability(self) -> float:
        """Fraction of simulated slots whose data capacity survived faults.

        ``1.0`` on a fault-free run; every recovery slot and every
        arbitration round voided by a collection-packet loss reduces it.
        """
        if self.slots_simulated == 0:
            return float("nan")
        lost = min(self.availability_stats.slots_lost, self.slots_simulated)
        return (self.slots_simulated - lost) / self.slots_simulated

    @property
    def overall_deadline_miss_ratio(self) -> float:
        """Miss ratio pooled over every deadline-bearing class."""
        met = sum(s.deadline_met for s in self.per_class.values())
        missed = sum(s.deadline_missed for s in self.per_class.values())
        if met + missed == 0:
            return 0.0
        return missed / (met + missed)


def registry_of(report: SimulationReport) -> MetricRegistry:
    """The ``sim:*`` observability registry of one finished run.

    A view of ``report``, nothing more: message totals summed over the
    traffic classes, one ``sim:fault:<kind>`` counter per injected fault
    kind, the recovery count, and every delivery latency observed into
    ``sim:latency_slots``.  A zero total leaves no counter.
    """
    registry = MetricRegistry()
    classes = report.per_class.values()
    availability = report.availability_stats
    registry.inc("sim:released", sum(s.released for s in classes))
    registry.inc("sim:delivered", sum(s.delivered for s in classes))
    registry.inc("sim:dropped", sum(s.dropped for s in classes))
    registry.inc("sim:deadline_missed", sum(s.deadline_missed for s in classes))
    registry.inc("sim:recoveries", availability.recoveries)
    for kind, total in availability.fault_events.items():
        registry.inc(f"sim:fault:{kind}", total)
    for stats in classes:
        for latency in stats.latencies_slots:
            registry.observe("sim:latency_slots", latency)
    # Unary plus keeps the positive counts: no counter at zero.
    registry.counters = +registry.counters
    return registry


class MetricsCollector:
    """Feeds a :class:`SimulationReport` from engine callbacks."""

    def __init__(self, n_nodes: int):
        self.report = SimulationReport(n_nodes=n_nodes)
        #: Set by the engine while a fault window is open (recovery in
        #: progress, or a rejoining node's queue being purged); deadline
        #: misses recorded meanwhile are attributed to the fault.
        self.fault_window_active = False

    # --- message lifecycle --------------------------------------------

    def _connection_stats(self, message: Message) -> ConnectionStats | None:
        cid = message.connection_id
        if cid is None:
            return None
        per_connection = self.report.per_connection
        stats = per_connection.get(cid)
        if stats is None:
            stats = per_connection[cid] = ConnectionStats(cid)
        return stats

    def on_release(self, message: Message) -> None:
        """Account a newly released message."""
        self.report.per_class[message.traffic_class].released += 1
        conn = self._connection_stats(message)
        if conn is not None:
            conn.released += 1

    def on_delivery(self, message: Message) -> None:
        """Account a completed delivery (latency, deadline verdict)."""
        stats = self.report.per_class[message.traffic_class]
        stats.delivered += 1
        completed = message.completed_slot
        assert completed is not None
        latency = completed - message.created_slot + 1
        stats.latencies_slots.append(latency)
        deadline = message.deadline_slot
        met = None if deadline is None else completed <= deadline
        if met is True:
            stats.deadline_met += 1
        elif met is False:
            stats.deadline_missed += 1
            if self.fault_window_active:
                stats.deadline_missed_in_fault_window += 1
        conn = self._connection_stats(message)
        if conn is not None:
            conn.delivered += 1
            conn.latencies_slots.append(latency)
            if met is True:
                conn.deadline_met += 1
            elif met is False:
                conn.deadline_missed += 1

    def on_drop(self, message: Message) -> None:
        """Account a dropped message (a miss if it had a deadline)."""
        stats = self.report.per_class[message.traffic_class]
        stats.dropped += 1
        if message.deadline_slot is not None:
            # A dropped deadline-bearing message is a missed deadline.
            stats.deadline_missed += 1
            if self.fault_window_active:
                stats.deadline_missed_in_fault_window += 1
        conn = self._connection_stats(message)
        if conn is not None:
            conn.dropped += 1
            conn.deadline_missed += 1

    # --- fault lifecycle ------------------------------------------------

    def on_fault_event(self, kind: str) -> None:
        """Account one injected fault occurrence of the given kind."""
        self.report.availability_stats.fault_events[kind] += 1

    def on_recovery(self, timeout_s: float) -> None:
        """Account one designated-node takeover (one voided slot)."""
        a = self.report.availability_stats
        a.recoveries += 1
        a.slots_lost += 1
        a.recovery_time_s += timeout_s

    def on_arbitration_void(self) -> None:
        """Account one arbitration round lost to collection-packet loss."""
        self.report.availability_stats.slots_lost += 1

    def on_node_failure(self) -> None:
        """Account one node fail-stop transition."""
        a = self.report.availability_stats
        a.node_failures += 1
        a.fault_events["node_failure"] += 1

    def on_node_rejoin(self) -> None:
        """Account one node repair/rejoin transition."""
        self.report.availability_stats.node_rejoins += 1

    def on_node_downtime(self, dead_nodes: int) -> None:
        """Account one slot during which ``dead_nodes`` nodes were down."""
        self.report.availability_stats.node_downtime_slots += dead_nodes

    # --- slot lifecycle -------------------------------------------------

    def on_slot(
        self,
        master: int,
        gap_s: float,
        n_transmitted: int,
        n_wasted: int,
        n_denied: int,
        slot_length_s: float,
        handover_hops: int,
    ) -> None:
        """Account one executed slot (time, grants, hand-over).

        ``master`` clocked the slot after a hand-over gap of ``gap_s``;
        ``n_transmitted`` grants sent a packet, ``n_wasted`` went unused
        and ``n_denied`` requests were refused at the clock break when
        the slot was planned.
        """
        r = self.report
        r.slots_simulated += 1
        r.wall_time_s += slot_length_s + gap_s
        r.slot_time_s += slot_length_s
        r.gap_time_s += gap_s
        r.master_slots[master] += 1
        r.handover_hops[handover_hops] += 1
        if n_transmitted:
            r.busy_slots += 1
            r.packets_sent += n_transmitted
        r.wasted_grants += n_wasted
        r.break_denials += n_denied
