"""The master's arbitration: request sorting and the grant sweep.

Section 3: "When the completed collection phase packet arrives back at the
master, the requests are processed.  There can only be N requests in the
master, as each node gets to send one request per slot.  The list of
requests is sorted in the same way as the local queues.  The master
traverses the list, starting with the request with highest priority
(closest to deadline) and then tries to fulfil as many of the N requests
as possible."  Ties on priority are resolved by node index.

The "tries to fulfil as many as possible" step is the spatial-reuse grant
sweep: a request is granted iff (a) its reserved links do not overlap the
links of any already-granted request, and (b) it does not cross the clock
break of the slot it will transmit in.

The clock break: the next slot is clocked by its master, whose clock
signal covers only ``N - 1`` hops -- every link except the one *entering*
the master.  A transmission whose path includes that link is unfeasible in
that slot ("if the clocking node is in the path of the message, the
message is unfeasible and cannot be sent during that slot", Section 1).
Under CCR-EDF the next master *is* the highest-priority requester, whose
own path can never include the link entering itself -- hence the paper's
guarantee that the most urgent message is always feasible.  Under the
round-robin baseline the break lands arbitrarily, producing the priority
inversion the paper criticises.

The schedulability analysis ignores spatial reuse (only one guaranteed
grant per slot, Section 5), so the arbiter also supports a single-grant
analysis mode.

:meth:`Arbiter.grant_sweep` is the one sweep: it works on plain integers
(one sort key per request, link masks by node) and returns plain node
lists, so the simulator's slot loop builds no record per slot.
:meth:`Arbiter.arbitrate` runs it over a wire-format packet and wraps
the answer in :class:`Grant` / :class:`ArbitrationResult`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.priorities import PRIO_NOTHING_TO_SEND
from repro.phy.packets import CollectionPacket, CollectionRequest, DistributionPacket


class BreakPolicy(enum.Enum):
    """How the grant sweep locates the next slot's clock break."""

    #: The break sits at the highest-priority requester (CCR-EDF: the next
    #: master is the hp node).
    AT_HP_NODE = "at_hp_node"
    #: The break sits at an explicitly given node (round-robin baselines).
    AT_FIXED_NODE = "at_fixed_node"
    #: No break is modelled (idealised network; upper bound).
    NONE = "none"


@dataclass(frozen=True, slots=True)
class Grant:
    """One granted transmission for the coming slot."""

    #: Node permitted to transmit.
    node: int
    #: The request being granted (links it will occupy, destinations).
    request: CollectionRequest


@dataclass(frozen=True, slots=True)
class ArbitrationResult:
    """Outcome of one arbitration round.

    ``hp_node`` is the node holding the highest-priority request -- under
    CCR-EDF, the master of the next slot.  When no node requested
    anything, the current master retains the clock (``hp_node == master``)
    and ``grants`` is empty.  ``denied_by_break`` lists nodes whose
    requests were refused *solely* because their path crossed the next
    slot's clock break -- the priority-inversion events experiment S1
    counts.
    """

    master: int
    grants: tuple[Grant, ...]
    hp_node: int
    denied_by_break: tuple[int, ...] = ()

    def granted_nodes(self) -> frozenset[int]:
        """The set of nodes granted a transmission this slot."""
        return frozenset(g.node for g in self.grants)

    def is_granted(self, node: int) -> bool:
        """Whether ``node`` received a grant."""
        return any(g.node == node for g in self.grants)


class Arbiter:
    """Implements the master's processing of a collection packet.

    Parameters
    ----------
    spatial_reuse:
        Grant every feasible non-overlapping request (run-time behaviour)
        instead of only the single highest-priority one (analysis mode).
    max_grants:
        Optional cap on grants per slot (``None`` = unlimited); mostly
        useful for controlled experiments.
    """

    def __init__(self, spatial_reuse: bool = True, max_grants: int | None = None) -> None:
        if max_grants is not None and max_grants < 1:
            raise ValueError(f"max_grants must be >= 1 or None, got {max_grants}")
        self.spatial_reuse = spatial_reuse
        self.max_grants = max_grants

    @staticmethod
    def _requests_of(
        packet: CollectionPacket,
    ) -> tuple[list[int], list[int], dict[int, CollectionRequest]]:
        """Sweep keys, per-node link masks and the non-empty requests."""
        n = packet.n_nodes
        keys: list[int] = []
        links = [0] * n
        by_node: dict[int, CollectionRequest] = {}
        for pos, req in enumerate(packet.requests):
            if req.priority != PRIO_NOTHING_TO_SEND:
                node = packet.node_of_position(pos)
                keys.append(req.priority * n + (n - 1 - node))
                links[node] = req.links
                by_node[node] = req
        return keys, links, by_node

    def sort_requests(
        self, packet: CollectionPacket
    ) -> list[tuple[int, CollectionRequest]]:
        """Non-empty requests as ``(node, request)``, highest priority first.

        "The list of requests is sorted in the same way as the local
        queues": descending priority; ties resolved by (ascending) node
        index, which the master knows from each request's position in the
        packet.  This is the order :meth:`grant_sweep` visits.
        """
        n = packet.n_nodes
        keys, _, by_node = self._requests_of(packet)
        keys.sort(reverse=True)
        nodes = [n - 1 - key % n for key in keys]
        return [(node, by_node[node]) for node in nodes]

    @staticmethod
    def break_link(n_nodes: int, master: int) -> int:
        """Id of the link entering ``master`` -- the unclocked link."""
        return (master - 1) % n_nodes

    def arbitrate(
        self,
        packet: CollectionPacket,
        break_policy: BreakPolicy = BreakPolicy.AT_HP_NODE,
        break_node: int | None = None,
    ) -> ArbitrationResult:
        """Run the grant sweep over a complete collection packet.

        Parameters
        ----------
        packet:
            The returned collection-phase packet.
        break_policy:
            Where the next slot's clock break sits (see
            :class:`BreakPolicy`).
        break_node:
            The fixed next master; required iff ``break_policy`` is
            :attr:`BreakPolicy.AT_FIXED_NODE`.
        """
        if (break_policy is BreakPolicy.AT_FIXED_NODE) != (break_node is not None):
            raise ValueError(
                "break_node must be given exactly when break_policy is AT_FIXED_NODE"
            )
        master = packet.master
        keys, links, by_node = self._requests_of(packet)
        if not keys:
            # Nothing to send anywhere: the master keeps the clock.
            return ArbitrationResult(master=master, grants=(), hp_node=master)
        n = packet.n_nodes
        break_mask: int | None = None
        if break_node is not None:
            break_mask = 1 << self.break_link(n, break_node)
        elif break_policy is BreakPolicy.NONE:
            break_mask = 0
        hp_node, granted, denied = self.grant_sweep(n, keys, links, break_mask)
        return ArbitrationResult(
            master=master,
            grants=tuple(Grant(node=node, request=by_node[node]) for node in granted),
            hp_node=hp_node,
            denied_by_break=tuple(denied),
        )

    def grant_sweep(
        self,
        n_nodes: int,
        keys: list[int],
        links: Sequence[int],
        break_mask: int | None = None,
    ) -> tuple[int, list[int], list[int]]:
        """The grant sweep: ``(hp_node, granted nodes, denied_by_break)``.

        ``keys`` holds one ``priority * n_nodes + (n_nodes - 1 - node)``
        per non-empty request and must not be empty.  Sorted descending
        (in place) that is the ``(-priority, node)`` order: the node term
        is below ``n_nodes``, so it only breaks priority ties, and it is
        inverted, so the smaller node wins them.  ``links[node]`` is the
        node's link reservation.  ``break_mask`` holds the next slot's
        unclocked link (``0``: no break); ``None`` puts the break at the
        highest-priority requester, the CCR-EDF next master.  Both node
        lists are in sweep order.
        """
        n = n_nodes
        keys.sort(reverse=True)
        hp_node = n - 1 - keys[0] % n
        if break_mask is None:
            break_mask = 1 << self.break_link(n, hp_node)
        limit = 1 if not self.spatial_reuse else (self.max_grants or n)
        granted: list[int] = []
        denied: list[int] = []
        occupied = 0
        for key in keys:
            node = n - 1 - key % n
            mask = links[node]
            if not mask:
                # A request reserving no links cannot transmit; skip it.
                # (Zero-link requests are used by pure signalling services.)
                continue
            if mask & break_mask:
                denied.append(node)
                continue
            if mask & occupied:
                continue
            granted.append(node)
            if len(granted) == limit:
                break
            occupied |= mask
        return hp_node, granted, denied

    def build_distribution_packet(
        self,
        packet: CollectionPacket,
        result: ArbitrationResult,
        extension_bits: int = 0,
    ) -> DistributionPacket:
        """Encode an arbitration result as the Figure 5 packet."""
        n = packet.n_nodes
        granted = result.granted_nodes()
        grants_bits = tuple(
            ((packet.master + d) % n) in granted for d in range(1, n)
        )
        return DistributionPacket(
            n_nodes=n,
            master=packet.master,
            grants=grants_bits,
            hp_node=result.hp_node,
            extension_bits=extension_bits,
        )
