"""CC-FPR: the predecessor protocol (refs [4], [9]).

Two properties distinguish CC-FPR from CCR-EDF, and this implementation
reproduces both:

1. **Distributed, locally-greedy arbitration.**  "A node only considers
   the time constraints of packets that are queued in it, and not in
   downstream nodes.  As an example, Node 1 decides that it will send and
   books Links 1 and 2, regardless of what Node 2 may have to send."
   The control packet passes the ring once; each node books its locally
   highest-priority message's links if they are still free in the packet,
   in *ring order* -- not in global priority order.  The master launches
   the packet, so its downstream neighbour (the next master) books first
   and the master itself books last when the packet returns.

2. **Round-robin clock hand-over.**  "Hand over is always to the next
   downstream node."  The gap between slots is constant (one link), but
   the clock break lands on nodes irrespective of message urgency: a
   message whose path crosses the next master is unfeasible that slot --
   the priority inversion that makes the worst-case analysis of [5]
   pessimistic.

A node whose head message is unfeasible (break-crossing) books nothing
that slot; the event is reported in the plan's ``denied_by_break`` so the
inversion experiments can count it.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.protocol import MacProtocol, PlanFields, PlannedTransmission
from repro.core.queues import NodeQueues
from repro.ring.segments import masks_overlap
from repro.ring.topology import RingTopology


class CcFprProtocol(MacProtocol):
    """CC-FPR MAC: ring-order booking + round-robin clocking.

    Each node picks which of its own messages to book with the same local
    rule as CCR-EDF (class precedence, then earliest deadline -- the
    "priority mechanism" that makes CC-FPR decent for best-effort
    traffic); the difference is the absence of any *global* ordering.

    Parameters
    ----------
    topology:
        The ring.
    spatial_reuse:
        CC-FPR's booking is inherently spatially reusing; disabling it
        restricts to a single booking per slot (first booker wins) for
        analysis-mode comparisons.
    """

    def __init__(self, topology: RingTopology, spatial_reuse: bool = True):
        super().__init__(topology)
        self.spatial_reuse = spatial_reuse

    # ------------------------------------------------------------------

    def arbitrate(
        self,
        current_slot: int,
        current_master: int,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> PlanFields:
        n = self.topology.n_nodes
        self._check_queues(queues_by_node)

        next_master = self.topology.downstream(current_master)
        break_mask = 1 << ((next_master - 1) % n)

        transmissions: list[PlannedTransmission] = []
        denied: list[PlannedTransmission] = []
        n_requests = 0
        booked = 0

        # Booking order: the packet launched by the master is appended to
        # by each node as it passes, so the master's downstream neighbour
        # -- which is also the *next* master -- books first, and the
        # current master books last when the packet returns.  The first
        # booker's path can never cross its own clock break, so the node
        # about to clock always gets its message out: the round-robin
        # analogue of the CCR-EDF guarantee, and the source of CC-FPR's
        # 1/N-per-node worst-case bound.
        for d in range(1, n + 1):
            node = (current_master + d) % n
            msg = queues_by_node[node].head()
            if msg is None:
                continue
            n_requests += 1
            links, _ = self.route_masks(msg.source, msg.destinations)
            tx = PlannedTransmission(
                node=node,
                message=msg,
                links=links,
                destinations=msg.destinations,
            )
            if masks_overlap(links, break_mask):
                # The next master sits in the message's path: unfeasible
                # this slot (the CC-FPR priority inversion).
                denied.append(tx)
                continue
            if masks_overlap(links, booked):
                continue
            if not self.spatial_reuse and transmissions:
                continue
            booked |= links
            transmissions.append(tx)

        return (
            next_master,
            self.topology.handover_gap_table[current_master * n + next_master],
            tuple(transmissions),
            tuple(denied),
            n_requests,
        )
