"""The unidirectional fibre-ribbon ring (Figures 1 and 2).

Numbering convention used throughout the library:

* nodes are ``0 .. N-1``; traffic flows from node ``i`` to node
  ``(i + 1) % N`` (downstream);
* link ``l`` is the fibre-ribbon segment from node ``l`` to node
  ``(l + 1) % N``;
* the *downstream distance* from ``a`` to ``b`` is ``(b - a) % N`` -- the
  number of links a packet from ``a`` traverses to reach ``b``.

The paper numbers nodes from 1 and assumes all links the same length; the
model permits heterogeneous lengths, and every analytical quantity
(Equations 1 and 2) is computed from the actual lengths.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro.phy.constants import DEFAULT_LINK_LENGTH_M
from repro.phy.fiber import FibreSegment


@dataclass(frozen=True)
class RingTopology:
    """Geometry of a unidirectional ring of ``n_nodes`` nodes.

    Parameters
    ----------
    n_nodes:
        Number of nodes (and of links) in the ring; at least 2.
    segments:
        One :class:`~repro.phy.fiber.FibreSegment` per link, where
        ``segments[l]`` is the link from node ``l`` downstream.  If omitted,
        all links default to :data:`~repro.phy.constants.DEFAULT_LINK_LENGTH_M`.
    """

    n_nodes: int
    segments: tuple[FibreSegment, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"a ring needs at least 2 nodes, got {self.n_nodes}")
        if not self.segments:
            object.__setattr__(
                self,
                "segments",
                tuple(FibreSegment(DEFAULT_LINK_LENGTH_M) for _ in range(self.n_nodes)),
            )
        if len(self.segments) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} segments, got {len(self.segments)}"
            )

    @classmethod
    def uniform(
        cls, n_nodes: int, link_length_m: float = DEFAULT_LINK_LENGTH_M
    ) -> "RingTopology":
        """Ring with all links of the same length (the paper's assumption).

        Equal arguments return one shared (immutable) instance, so every
        table cached per topology is built once per ring, not per run.
        """
        return _uniform(cls, n_nodes, link_length_m)

    # ------------------------------------------------------------------
    # Hop arithmetic
    # ------------------------------------------------------------------

    def downstream(self, node: int, hops: int = 1) -> int:
        """Node ``hops`` links downstream of ``node``."""
        self._check_node(node)
        return (node + hops) % self.n_nodes

    def upstream(self, node: int, hops: int = 1) -> int:
        """Node ``hops`` links upstream of ``node``."""
        self._check_node(node)
        return (node - hops) % self.n_nodes

    def distance(self, src: int, dst: int) -> int:
        """Downstream distance (number of links) from ``src`` to ``dst``."""
        self._check_node(src)
        self._check_node(dst)
        return (dst - src) % self.n_nodes

    def path_links(self, src: int, dst: int) -> tuple[int, ...]:
        """The links a packet from ``src`` to ``dst`` traverses, in order.

        A transmission to oneself is meaningless on this ring and raises.
        """
        d = self.distance(src, dst)
        if d == 0:
            raise ValueError(f"source and destination are the same node ({src})")
        return tuple((src + i) % self.n_nodes for i in range(d))

    # ------------------------------------------------------------------
    # Geometry-derived delays
    # ------------------------------------------------------------------

    @cached_property
    def total_length_m(self) -> float:
        """Circumference of the ring in metres."""
        return sum(seg.length_m for seg in self.segments)

    @cached_property
    def mean_link_length_m(self) -> float:
        """Average link length ``L`` used by Equation (1)."""
        return self.total_length_m / self.n_nodes

    @cached_property
    def ring_propagation_delay_s(self) -> float:
        """Propagation delay around the whole ring, ``t_prop`` of Eq. (2)."""
        return sum(seg.propagation_delay_s for seg in self.segments)

    def propagation_delay_s(self, src: int, dst: int) -> float:
        """Propagation delay along the downstream path ``src`` -> ``dst``."""
        return sum(self.segments[l].propagation_delay_s for l in self.path_links(src, dst))

    def handover_delay_s(self, old_master: int, new_master: int) -> float:
        """Clock hand-over gap when mastership moves between two nodes.

        Equation (1): the gap is the propagation delay of the clock-stop
        indication from the old master to the new one, ``D`` segments
        downstream.  Hand-over to the same node keeps the clock running
        (no gap); hand-over to the upstream neighbour is the worst case,
        ``D = N - 1``.
        """
        self._check_node(old_master)
        self._check_node(new_master)
        if old_master == new_master:
            return 0.0
        return self.propagation_delay_s(old_master, new_master)

    @cached_property
    def handover_gap_table(self) -> tuple[float, ...]:
        """Every hand-over gap of the ring, flat: ``[old * n_nodes + new]``.

        Each entry is the float :meth:`handover_delay_s` returns for that
        ordered pair, so slot loops may index the table in place of the
        call.  Equal topologies share one table (a scenario builds a new
        ``RingTopology`` per run).
        """
        return _handover_gap_table(self)

    @cached_property
    def max_handover_delay_s(self) -> float:
        """Worst-case hand-over gap, ``t_handover_max`` (``D = N - 1``).

        With heterogeneous links this is the maximum over all ordered node
        pairs, which is attained by excluding the shortest single link
        from the full ring.
        """
        shortest = min(seg.propagation_delay_s for seg in self.segments)
        return self.ring_propagation_delay_s - shortest

    # ------------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node id {node} out of range for N={self.n_nodes}")

    def nodes(self) -> range:
        """Iterate over node ids."""
        return range(self.n_nodes)


@lru_cache(maxsize=16)
def _handover_gap_table(topology: RingTopology) -> tuple[float, ...]:
    nodes = topology.nodes()
    return tuple(topology.handover_delay_s(a, b) for a in nodes for b in nodes)


# typed: 10 and 10.0 build segments that print differently.
@lru_cache(maxsize=16, typed=True)
def _uniform(
    cls: type[RingTopology], n_nodes: int, link_length_m: float
) -> RingTopology:
    return cls(
        n_nodes=n_nodes,
        segments=tuple(FibreSegment(link_length_m) for _ in range(n_nodes)),
    )
