"""Idealised slotted-TDMA ring baseline.

The classic way to guarantee real-time traffic on a ring is static time
division: slot ``k`` belongs to node ``k mod N``, which may transmit one
message anywhere (the clock rotates with the ownership, so the owner
never crosses a break -- exactly like the CCR-EDF master).  TDMA gives
every connection a hard bandwidth guarantee of ``1/N`` of the slots but
is deadline-blind: an urgent message must wait for its owner's turn, up
to ``N - 1`` slots, regardless of every other node being idle.  Comparing
CCR-EDF against TDMA isolates the value of *deadline-driven* slot
assignment over *static* assignment.

Non-owners are idle even when the owner has nothing to send (no spatial
reuse: a reuse-capable TDMA would need exactly the arbitration machinery
TDMA exists to avoid).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.protocol import MacProtocol, PlanFields, PlannedTransmission
from repro.core.queues import NodeQueues
from repro.ring.topology import RingTopology


class TdmaProtocol(MacProtocol):
    """Static slot ownership: slot ``k`` belongs to node ``k mod N``."""

    def __init__(self, topology: RingTopology):
        super().__init__(topology)

    def arbitrate(
        self,
        current_slot: int,
        current_master: int,
        queues_by_node: Mapping[int, NodeQueues],
    ) -> PlanFields:
        n = self.topology.n_nodes
        self._check_queues(queues_by_node)

        transmit_slot = current_slot + 1
        owner = transmit_slot % n
        msg = queues_by_node[owner].head()
        transmissions: tuple[PlannedTransmission, ...] = ()
        n_requests = 0
        if msg is not None:
            n_requests = 1
            links, _ = self.route_masks(msg.source, msg.destinations)
            transmissions = (
                PlannedTransmission(
                    node=owner,
                    message=msg,
                    links=links,
                    destinations=msg.destinations,
                ),
            )

        gap_s = self.topology.handover_gap_table[current_master * n + owner]
        return owner, gap_s, transmissions, (), n_requests
