"""Per-node transmit queues with strict class precedence.

Each node keeps one queue per traffic class.  Within the two deadline-
bearing classes, the queue is ordered earliest-deadline-first (ties broken
by message id, i.e. arrival order); the non-real-time queue is FIFO.
Under a non-default :class:`~repro.core.policy.SchedulingPolicy` the
deadline-bearing classes order by the policy's key instead (period for
rate monotonic, release slot for FIFO); non-real-time stays FIFO under
every policy.

Section 3 defines the selection rule a node applies when composing its
collection-phase request: "Observed locally in a node, best effort
messages will only be requested to be sent if there is no logical
real-time connection message queued.  The same applies to non real-time
messages."  :meth:`NodeQueues.head` implements exactly that rule.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass

if TYPE_CHECKING:  # policy imports messages; keep the cycle typing-only
    from repro.core.policy import SchedulingPolicy

#: Heap entries are plain ``(primary key, msg_id, message)`` tuples:
#: deadline-ordered classes use the deadline (or the policy's queue key)
#: as primary key, the FIFO class a running counter.  ``msg_id`` is globally unique, so tuple
#: comparison never reaches the (incomparable) message itself and every
#: comparison runs at C speed -- this sits on the simulator's hot path.
_QueueEntry = tuple[int, int, Message]


#: Statuses under which a message still occupies its queue slot.
_LIVE = (MessageStatus.PENDING, MessageStatus.IN_TRANSIT)

#: Statuses under which a message no longer occupies its queue slot.
_DELIVERED = MessageStatus.DELIVERED
_DROPPED = MessageStatus.DROPPED


class NodeQueues:
    """The three transmit queues of one node.

    Messages stay in their queue until fully transmitted (multi-slot
    messages keep their place and their deadline ordering between
    packets) or dropped.

    The head lookup is memoised: :meth:`head` runs on the simulator's
    per-slot hot path once per node, and between queue mutations the
    answer only changes when the cached head itself finishes (delivered
    or dropped) -- which the cheap status check below detects, since a
    finished non-head message can never promote anything above the head.
    The memo is the pair ``_head_valid`` / ``_cached_head``; ``_head_valid
    and _cached_head is None`` means "no live message", which the
    protocol's collection phase reads to skip idle nodes.  Anything that
    puts a message on a heap must clear ``_head_valid`` (``enqueue`` does,
    and so do the vector kernels, which push onto the heaps directly).
    """

    __slots__ = (
        "node",
        "_policy",
        "_rt",
        "_be",
        "_nrt",
        "_heaps",
        "_fifo_counter",
        "_cached_head",
        "_head_valid",
    )

    def __init__(self, node: int, policy: "SchedulingPolicy | None" = None) -> None:
        self.node = node
        # A SchedulingPolicy whose queue_key orders the deadline-bearing
        # classes; None (the default, and what EDF resolves to) keeps
        # the plain earliest-deadline order with zero per-enqueue cost.
        self._policy = policy
        self._rt: list[_QueueEntry] = []
        self._be: list[_QueueEntry] = []
        self._nrt: list[_QueueEntry] = []
        self._heaps = {
            TrafficClass.RT_CONNECTION: self._rt,
            TrafficClass.BEST_EFFORT: self._be,
            TrafficClass.NON_REAL_TIME: self._nrt,
        }
        self._fifo_counter = 0
        self._cached_head: Message | None = None
        self._head_valid = False

    # ------------------------------------------------------------------

    def enqueue(self, message: Message) -> None:
        """Insert a message into the queue of its class."""
        if message.source != self.node:
            raise ValueError(
                f"message {message.msg_id} originates at node {message.source}, "
                f"not at this node ({self.node})"
            )
        if message.status is not MessageStatus.PENDING:
            raise ValueError(
                f"only pending messages may be enqueued, got {message.status.value}"
            )
        if message.deadline_slot is not None:
            if self._policy is None:
                key = message.deadline_slot
            else:
                key = self._policy.queue_key(message)
        else:
            key = self._fifo_counter
            self._fifo_counter += 1
        heapq.heappush(
            self._heaps[message.traffic_class], (key, message.msg_id, message)
        )
        self._head_valid = False

    def _head_of(self, traffic_class: TrafficClass) -> Message | None:
        """Head of one class queue, discarding finished entries lazily."""
        heap = self._heaps[traffic_class]
        while heap:
            msg = heap[0][2]
            st = msg.status
            if st is _DELIVERED or st is _DROPPED:
                heapq.heappop(heap)
                continue
            return msg
        return None

    def head(self) -> Message | None:
        """The locally highest-priority message (the one to request).

        Strict class precedence: any RT-connection message beats any
        best-effort message beats any non-real-time message; within a
        class the earliest deadline (or FIFO order) wins.
        """
        if self._head_valid:
            msg = self._cached_head
            if msg is None:
                return None
            st = msg.status
            if st is not _DELIVERED and st is not _DROPPED:
                return msg
        msg = None
        for heap in (self._rt, self._be, self._nrt):
            while heap:
                candidate = heap[0][2]
                st = candidate.status
                if st is _DELIVERED or st is _DROPPED:
                    heapq.heappop(heap)
                    continue
                msg = candidate
                break
            if msg is not None:
                break
        self._cached_head = msg
        self._head_valid = True
        return msg

    def head_of_class(self, traffic_class: TrafficClass) -> Message | None:
        """Head of a specific class queue (used by spatial-reuse probing)."""
        return self._head_of(traffic_class)

    # ------------------------------------------------------------------

    def drop_late(self, current_slot: int) -> list[Message]:
        """Drop every queued deadline-bearing message that is already late.

        Returns the dropped messages.  Whether to drop or to keep sending
        late messages is a policy choice; the simulator exposes both, and
        this helper implements the drop policy.
        """
        dropped: list[Message] = []
        for traffic_class in (TrafficClass.RT_CONNECTION, TrafficClass.BEST_EFFORT):
            heap = self._heaps[traffic_class]
            if not heap:
                continue
            keep: list[_QueueEntry] = []
            for entry in heap:
                msg = entry[2]
                if msg.status in (MessageStatus.DELIVERED, MessageStatus.DROPPED):
                    continue
                if msg.is_late(current_slot):
                    msg.drop()
                    dropped.append(msg)
                else:
                    keep.append(entry)
            if len(keep) == len(heap):
                # Nothing dropped and nothing finished: the heap is
                # unchanged, so skip the copy + re-heapify (this method
                # runs every slot under the drop-late policy).
                continue
            heap[:] = keep
            heapq.heapify(heap)
            self._head_valid = False
        return dropped

    def purge(self) -> list[Message]:
        """Drop every live queued message and empty all three queues.

        Models a node crash/rejoin: a repaired node restarts with empty
        queues, so whatever it had buffered is lost and must be
        re-released by the application.  Returns the dropped messages so
        the caller can account them.
        """
        purged: list[Message] = []
        for heap in self._heaps.values():
            for entry in heap:
                msg = entry[2]
                if msg.status in (MessageStatus.DELIVERED, MessageStatus.DROPPED):
                    continue
                msg.drop()
                purged.append(msg)
            heap.clear()
        self._head_valid = False
        return purged

    def pending_count(self, traffic_class: TrafficClass | None = None) -> int:
        """Number of live (pending or in-transit) messages queued."""
        classes = (
            [traffic_class]
            if traffic_class is not None
            else list(self._heaps.keys())
        )
        count = 0
        for tc in classes:
            for entry in self._heaps[tc]:
                if entry[2].status in (
                    MessageStatus.PENDING,
                    MessageStatus.IN_TRANSIT,
                ):
                    count += 1
        return count

    def pending_messages(self) -> list[Message]:
        """All live messages across the three queues (unordered)."""
        out: list[Message] = []
        for heap in self._heaps.values():
            for entry in heap:
                if entry[2].status in (
                    MessageStatus.PENDING,
                    MessageStatus.IN_TRANSIT,
                ):
                    out.append(entry[2])
        return out

    @property
    def is_empty(self) -> bool:
        """Whether no live message is queued in any class."""
        return self.head() is None
