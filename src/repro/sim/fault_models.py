"""Composable fault models and the recovery policy (paper Section 8).

The paper leaves two failure modes open and sketches the remedy: "The
current study also assumes that the token is never lost.  In a real
implementation, using a time out and a designated node that always will
start could solve this."  Experiment S9 measures what that costs:

* **node failure**: from a given slot on, a node stops releasing traffic,
  stops appending requests, and cannot transmit or clock.  If it was due
  to become master, the clock never starts;
* **control loss**: the distribution packet of one slot is lost, so no
  node learns the arbitration result or the next master;
* **recovery**: when the expected clock does not appear within the
  timeout, the *designated node* (the lowest-id live node) assumes the
  master role, the affected slot's grants are void, and operation
  resumes -- at the price of one timeout interval plus one idle slot.

Faults reach the engine through the :class:`FaultModel` interface, which
it drives once per slot, with composable, independently seeded fault
sources:

* :class:`ScriptedFaultModel` -- exactly the fault set Section 8
  sketches: permanent fail-stop nodes and a hand-picked set of lost
  distribution packets;
* :class:`ScriptedNodeOutages` -- deterministic *transient* node
  outages ``node -> [(down, up), ...]``: the node fail-stops at ``down``
  and rejoins, with empty queues, at ``up``;
* :class:`BernoulliControlLoss` -- independent per-slot loss of the
  collection and/or distribution packet (the two phases can now fail
  independently);
* :class:`GilbertElliottControlLoss` -- two-state (good/bad) Markov
  burst loss on the control channel, the classic Gilbert-Elliott model
  used across the TSN/ring dependability literature;
* :class:`TransientNodeFaults` -- per-node exponential time-to-failure
  and time-to-repair, so nodes crash *and come back*;
* :class:`ClockGlitchFaults` -- voids one clock hand-over (the new
  master's clock never starts) without losing any packet;
* :class:`CompositeFaultModel` -- superimposes any of the above.

Every stochastic model draws lazily, one slot at a time, from its own
:class:`numpy.random.Generator`, and caches the draw, so queries are
idempotent and two runs from equal seeds are bit-identical regardless of
query order.

Recovery is no longer part of the fault script: a
:class:`RecoveryPolicy` carries the timeout and its bounded exponential
backoff, and the engine's explicit recovery state machine
(:class:`~repro.sim.engine.Simulation`) applies it -- tolerating
repeated losses *during* recovery, which the old single-shot takeover
could not.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RecoveryPolicy:
    """Timeout/backoff parameters of the designated-node recovery.

    Parameters
    ----------
    timeout_s:
        Base timeout: how long nodes wait for the expected clock before
        the designated node takes over.  Must exceed the worst-case
        hand-over gap of the network, or healthy hand-overs would be
        mistaken for failures (the engine enforces this).
    backoff_factor:
        Multiplier applied to the timeout on every *consecutive* failed
        recovery attempt (a loss or glitch striking during recovery
        itself).  ``1.0`` disables backoff.
    max_backoff:
        Upper bound on the accumulated backoff multiplier, so the
        timeout never exceeds ``timeout_s * max_backoff``.
    """

    timeout_s: float = 1e-6
    backoff_factor: float = 2.0
    max_backoff: float = 32.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(
                "recovery timeout must be finite and positive, got "
                f"{self.timeout_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff < 1.0:
            raise ValueError(
                f"max backoff must be >= 1, got {self.max_backoff}"
            )

    def timeout_for(self, attempt: int) -> float:
        """Timeout of the ``attempt``-th consecutive recovery (0-based).

        ``attempt = 0`` is the first takeover after a fault and costs the
        base timeout; every further consecutive attempt multiplies it by
        :attr:`backoff_factor`, capped at :attr:`max_backoff`.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt}")
        multiplier = min(self.backoff_factor**attempt, self.max_backoff)
        return self.timeout_s * multiplier


class FaultModel:
    """Per-slot fault interface the simulation engine drives.

    The base class is the *fault-free* model: every node is always
    alive, no control packet is ever lost, no hand-over glitches.
    Concrete models override the queries they affect.  All queries must
    be deterministic and idempotent per ``(slot, node)`` -- stochastic
    subclasses draw lazily in slot order and cache.
    """

    #: Recovery parameters the engine applies when this model's faults
    #: strike.  Subclasses set their own in ``__init__``.
    recovery: RecoveryPolicy = RecoveryPolicy()

    def is_alive(self, node: int, slot: int) -> bool:
        """Whether ``node`` is operational during ``slot``."""
        return True

    def collection_lost(self, slot: int) -> bool:
        """Whether slot's collection packet is corrupted (no arbitration).

        A lost collection packet costs one idle slot but no timeout: the
        master *knows* the round failed (its packet never returned) and
        simply keeps the clock through an idle slot.
        """
        return False

    def distribution_lost(self, slot: int) -> bool:
        """Whether slot's distribution packet is lost.

        Nobody learns the arbitration result or the next master, so the
        next slot's clock never appears and the timeout recovery runs.
        """
        return False

    def clock_glitch(self, slot: int) -> bool:
        """Whether the hand-over *into* ``slot`` is voided.

        Models a transient clock-channel glitch: the new master's clock
        never reaches the ring even though every packet arrived, so the
        slot times out exactly like a dead master.
        """
        return False

    def designated_node(self, slot: int, n_nodes: int) -> int:
        """The node that restarts the clock after a timeout.

        The paper's "designated node that always will start": the
        lowest-id node still alive.  Raises :class:`RuntimeError` when
        every node is dead -- the network cannot recover.
        """
        for node in range(n_nodes):
            if self.is_alive(node, slot):
                return node
        raise RuntimeError("all nodes have failed; the network is dead")


class ScriptedFaultModel(FaultModel):
    """A scripted set of permanent node failures and control losses.

    Parameters
    ----------
    node_failures:
        Mapping ``node -> slot``: the node is dead from that slot onward.
    control_loss_slots:
        Slots whose *distribution* packet is lost (the plan decided
        during that slot never reaches the nodes).
    recovery:
        Recovery policy; defaults to :class:`RecoveryPolicy`'s defaults.
    """

    def __init__(
        self,
        node_failures: Mapping[int, int] | None = None,
        control_loss_slots: Iterable[int] = (),
        recovery: RecoveryPolicy | None = None,
    ):
        self.node_failures = dict(node_failures or {})
        self.control_loss_slots = frozenset(control_loss_slots)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        for node, slot in self.node_failures.items():
            if slot < 0:
                raise ValueError(
                    f"failure slot for node {node} must be non-negative, got {slot}"
                )

    def is_alive(self, node: int, slot: int) -> bool:
        """Whether ``node`` is operational during ``slot``."""
        failed_at = self.node_failures.get(node)
        return failed_at is None or slot < failed_at

    def distribution_lost(self, slot: int) -> bool:
        """Whether the scripted fault set loses slot's distribution packet."""
        return slot in self.control_loss_slots


class ScriptedNodeOutages(FaultModel):
    """Deterministic transient node outages with rejoin.

    Parameters
    ----------
    outages:
        ``node -> iterable of (down_slot, up_slot)`` half-open intervals
        during which the node is dead.  ``up_slot = None`` makes the
        outage permanent.  Intervals of one node must be disjoint and
        ascending.
    recovery:
        Recovery policy; defaults to :class:`RecoveryPolicy`'s defaults.
    """

    def __init__(
        self,
        outages: Mapping[int, Iterable[tuple[int, int | None]]],
        recovery: RecoveryPolicy | None = None,
    ):
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._outages: dict[int, tuple[tuple[int, float], ...]] = {}
        for node, intervals in outages.items():
            cleaned: list[tuple[int, float]] = []
            last_up = -1.0
            for down, up in intervals:
                up_f = math.inf if up is None else float(up)
                if down < 0 or up_f <= down:
                    raise ValueError(
                        f"bad outage interval ({down}, {up}) for node {node}"
                    )
                if down <= last_up:
                    raise ValueError(
                        f"outage intervals of node {node} overlap or are "
                        "out of order"
                    )
                cleaned.append((down, up_f))
                last_up = up_f
            self._outages[node] = tuple(cleaned)

    def is_alive(self, node: int, slot: int) -> bool:
        """Whether ``node`` is outside all its scripted outage windows."""
        for down, up in self._outages.get(node, ()):
            if down <= slot < up:
                return False
            if slot < down:
                break
        return True


class BernoulliControlLoss(FaultModel):
    """Independent per-slot loss of collection/distribution packets.

    Each slot draws the two phases independently, so they can fail
    separately -- the seed's injector could only lose the distribution
    packet.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_collection: float = 0.0,
        p_distribution: float = 0.0,
        recovery: RecoveryPolicy | None = None,
    ):
        for name, p in (
            ("collection", p_collection),
            ("distribution", p_distribution),
        ):
            if not (0.0 <= p < 1.0):
                raise ValueError(
                    f"{name} loss probability must be in [0, 1), got {p}"
                )
        self.rng = rng
        self.p_collection = p_collection
        self.p_distribution = p_distribution
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._draws: list[tuple[bool, bool]] = []

    def _ensure(self, slot: int) -> None:
        while len(self._draws) <= slot:
            col = bool(self.rng.random() < self.p_collection)
            dist = bool(self.rng.random() < self.p_distribution)
            self._draws.append((col, dist))

    def collection_lost(self, slot: int) -> bool:
        """Whether slot's collection packet is lost (cached draw)."""
        self._ensure(slot)
        return self._draws[slot][0]

    def distribution_lost(self, slot: int) -> bool:
        """Whether slot's distribution packet is lost (cached draw)."""
        self._ensure(slot)
        return self._draws[slot][1]


#: Gilbert-Elliott channel states.
GE_GOOD, GE_BAD = "good", "bad"


class GilbertElliottControlLoss(FaultModel):
    """Two-state Markov (Gilbert-Elliott) burst loss on the control ring.

    The channel flips between a *good* and a *bad* state once per slot
    (``p_good_to_bad`` / ``p_bad_to_good``); in each state the collection
    and distribution packets are lost independently with that state's
    loss probability.  ``loss_bad`` near 1 with a small ``p_bad_to_good``
    produces the bursty error trains real optical links exhibit, which
    independent Bernoulli loss cannot.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        start_bad: bool = False,
        recovery: RecoveryPolicy | None = None,
    ):
        for name, p in (
            ("good->bad", p_good_to_bad),
            ("bad->good", p_bad_to_good),
        ):
            if not (0.0 <= p <= 1.0):
                raise ValueError(
                    f"transition probability {name} must be in [0, 1], got {p}"
                )
        for name, p in (("good", loss_good), ("bad", loss_bad)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(
                    f"loss probability in the {name} state must be in "
                    f"[0, 1], got {p}"
                )
        self.rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._bad = start_bad
        self._draws: list[tuple[bool, bool, bool]] = []  # (col, dist, bad)

    def _ensure(self, slot: int) -> None:
        while len(self._draws) <= slot:
            flip_p = self.p_bad_to_good if self._bad else self.p_good_to_bad
            if self.rng.random() < flip_p:
                self._bad = not self._bad
            loss_p = self.loss_bad if self._bad else self.loss_good
            col = bool(self.rng.random() < loss_p)
            dist = bool(self.rng.random() < loss_p)
            self._draws.append((col, dist, self._bad))

    def collection_lost(self, slot: int) -> bool:
        """Whether slot's collection packet is lost (cached draw)."""
        self._ensure(slot)
        return self._draws[slot][0]

    def distribution_lost(self, slot: int) -> bool:
        """Whether slot's distribution packet is lost (cached draw)."""
        self._ensure(slot)
        return self._draws[slot][1]

    def state_at(self, slot: int) -> str:
        """The channel state (:data:`GE_GOOD` / :data:`GE_BAD`) at ``slot``."""
        self._ensure(slot)
        return GE_BAD if self._draws[slot][2] else GE_GOOD


class TransientNodeFaults(FaultModel):
    """Stochastic transient node faults: exponential failure and repair.

    Each node alternates exponentially distributed up-times (mean
    ``mttf_slots``) and down-times (mean ``mttr_slots``), both in whole
    slots (minimum 1).  A repaired node rejoins with empty queues -- the
    engine purges its queue and, when an admission controller is
    attached, re-admits its suspended connections.

    Each node draws from its own child generator spawned off ``rng``, so
    timelines are mutually independent and insensitive to query order.

    Parameters
    ----------
    rng:
        Seed source; one child stream is spawned per node.
    n_nodes:
        Ring size.
    mttf_slots:
        Mean slots between repair and the next failure (> 0).
    mttr_slots:
        Mean outage duration in slots (> 0).
    immortal:
        Nodes that never fail (e.g. keep the designated node 0 alive so
        the ring always has a recovery anchor).
    recovery:
        Recovery policy; defaults to :class:`RecoveryPolicy`'s defaults.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_nodes: int,
        mttf_slots: float,
        mttr_slots: float,
        immortal: Iterable[int] = (),
        recovery: RecoveryPolicy | None = None,
    ):
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        if not 0 < mttf_slots < math.inf:
            raise ValueError(f"MTTF must be finite and positive, got {mttf_slots}")
        if not 0 < mttr_slots < math.inf:
            raise ValueError(f"MTTR must be finite and positive, got {mttr_slots}")
        self.n_nodes = n_nodes
        self.mttf_slots = mttf_slots
        self.mttr_slots = mttr_slots
        self.immortal = frozenset(immortal)
        for node in self.immortal:
            if not (0 <= node < n_nodes):
                raise ValueError(f"immortal node {node} outside the ring")
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._rngs = rng.spawn(n_nodes)
        #: Per-node ascending toggle slots: even index = failure slot,
        #: odd index = rejoin slot.  Extended lazily.
        self._toggles: list[list[int]] = [[] for _ in range(n_nodes)]
        self._horizon: list[int] = [0] * n_nodes

    def _extend(self, node: int, slot: int) -> None:
        toggles = self._toggles[node]
        rng = self._rngs[node]
        while self._horizon[node] <= slot:
            up = max(1, math.ceil(rng.exponential(self.mttf_slots)))
            down = max(1, math.ceil(rng.exponential(self.mttr_slots)))
            fail_at = self._horizon[node] + up
            toggles.append(fail_at)
            toggles.append(fail_at + down)
            self._horizon[node] = fail_at + down

    def is_alive(self, node: int, slot: int) -> bool:
        """Whether ``node`` is up at ``slot`` (lazily drawn timeline)."""
        if node in self.immortal:
            return True
        self._extend(node, slot)
        # Alive iff an even number of toggles happened at or before slot.
        return bisect_right(self._toggles[node], slot) % 2 == 0


class ClockGlitchFaults(FaultModel):
    """Transient clock glitches that void one hand-over each.

    A glitch at slot ``k`` means the clock for slot ``k`` never starts,
    although every node is up and every packet arrived: the slot times
    out and the designated node restarts the clock.  Glitches can be
    scripted (``glitch_slots``), drawn per slot (``p_glitch``), or both.
    """

    def __init__(
        self,
        p_glitch: float = 0.0,
        glitch_slots: Iterable[int] = (),
        rng: np.random.Generator | None = None,
        recovery: RecoveryPolicy | None = None,
    ):
        if not (0.0 <= p_glitch < 1.0):
            raise ValueError(
                f"glitch probability must be in [0, 1), got {p_glitch}"
            )
        if p_glitch > 0.0 and rng is None:
            raise ValueError("stochastic glitches need an rng")
        self.p_glitch = p_glitch
        self.glitch_slots = frozenset(glitch_slots)
        self.rng = rng
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._draws: list[bool] = []

    def clock_glitch(self, slot: int) -> bool:
        """Whether the hand-over into ``slot`` is voided."""
        if slot in self.glitch_slots:
            return True
        if self.p_glitch == 0.0:
            return False
        while len(self._draws) <= slot:
            self._draws.append(bool(self.rng.random() < self.p_glitch))
        return self._draws[slot]


class CompositeFaultModel(FaultModel):
    """Superposition of several fault models.

    A node is alive iff *every* component says so; a packet is lost (and
    a hand-over glitched) iff *any* component loses it.  Every component
    is queried each slot -- no short-circuiting -- so each stochastic
    source advances its stream exactly once per slot regardless of the
    others' answers.

    The recovery policy defaults to the first component's.
    """

    def __init__(
        self,
        models: Sequence[FaultModel],
        recovery: RecoveryPolicy | None = None,
    ):
        self.models = tuple(models)
        if recovery is not None:
            self.recovery = recovery
        elif self.models:
            self.recovery = self.models[0].recovery
        else:
            self.recovery = RecoveryPolicy()

    def is_alive(self, node: int, slot: int) -> bool:
        """Whether every component considers ``node`` alive."""
        alive = True
        for m in self.models:
            alive &= m.is_alive(node, slot)
        return alive

    def collection_lost(self, slot: int) -> bool:
        """Whether any component loses slot's collection packet."""
        lost = False
        for m in self.models:
            lost |= m.collection_lost(slot)
        return lost

    def distribution_lost(self, slot: int) -> bool:
        """Whether any component loses slot's distribution packet."""
        lost = False
        for m in self.models:
            lost |= m.distribution_lost(slot)
        return lost

    def clock_glitch(self, slot: int) -> bool:
        """Whether any component glitches the hand-over into ``slot``."""
        glitch = False
        for m in self.models:
            glitch |= m.clock_glitch(slot)
        return glitch


@dataclass(frozen=True)
class FaultConfig:
    """Declarative stochastic-fault specification (CLI / runner layer).

    Collects the ``--fault-*`` knobs into one value object;
    :meth:`build` turns it into a :class:`CompositeFaultModel` seeded
    from :attr:`seed` (or an externally supplied generator, for
    :func:`repro.sim.batch.replicate` integration).
    """

    #: Mean slots between node failures (``None`` disables node faults).
    node_mttf_slots: float | None = None
    #: Mean outage length in slots.
    node_mttr_slots: float = 200.0
    #: Nodes that never fail (default: node 0, the recovery anchor).
    immortal_nodes: frozenset[int] = frozenset({0})
    #: Bernoulli per-slot collection-packet loss probability.
    p_collection_loss: float = 0.0
    #: Bernoulli per-slot distribution-packet loss probability.
    p_distribution_loss: float = 0.0
    #: Gilbert-Elliott good->bad transition probability (0 disables).
    ge_p_good_to_bad: float = 0.0
    #: Gilbert-Elliott bad->good transition probability.
    ge_p_bad_to_good: float = 0.1
    #: Control-packet loss probability while in the bad state.
    ge_loss_bad: float = 1.0
    #: Per-slot clock-glitch probability.
    p_clock_glitch: float = 0.0
    #: Recovery timeout [s].
    timeout_s: float = 2e-6
    #: Backoff multiplier for consecutive failed recoveries.
    backoff_factor: float = 2.0
    #: Cap on the accumulated backoff multiplier.
    max_backoff: float = 32.0
    #: Seed of the fault randomness (independent of the workload seed).
    seed: int = 0

    def __post_init__(self) -> None:
        # any_active() reads these: a value outside [0, 1], NaN included,
        # must not switch its fault source off without a word.
        for name in ("p_collection_loss", "p_distribution_loss",
                     "ge_p_good_to_bad", "p_clock_glitch"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    def any_active(self) -> bool:
        """Whether this configuration produces any fault source."""
        return (
            self.node_mttf_slots is not None
            or self.p_collection_loss > 0.0
            or self.p_distribution_loss > 0.0
            or self.ge_p_good_to_bad > 0.0
            or self.p_clock_glitch > 0.0
        )

    def recovery_policy(self) -> RecoveryPolicy:
        """The recovery policy shared by all built components."""
        return RecoveryPolicy(
            timeout_s=self.timeout_s,
            backoff_factor=self.backoff_factor,
            max_backoff=self.max_backoff,
        )

    def build(
        self, n_nodes: int, rng: np.random.Generator | None = None
    ) -> CompositeFaultModel | None:
        """Instantiate the configured fault sources for an ``n_nodes`` ring.

        Returns ``None`` when no source is active.  Each source gets its
        own child stream of ``rng`` (default: a fresh generator seeded
        with :attr:`seed`), so adding one source never perturbs the
        draws of another.
        """
        if not self.any_active():
            return None
        if rng is None:
            rng = np.random.default_rng(self.seed)
        recovery = self.recovery_policy()
        streams = iter(rng.spawn(4))
        models: list[FaultModel] = []
        if self.node_mttf_slots is not None:
            models.append(
                TransientNodeFaults(
                    next(streams),
                    n_nodes=n_nodes,
                    mttf_slots=self.node_mttf_slots,
                    mttr_slots=self.node_mttr_slots,
                    immortal=self.immortal_nodes & set(range(n_nodes)),
                    recovery=recovery,
                )
            )
        else:
            next(streams)
        if self.p_collection_loss > 0.0 or self.p_distribution_loss > 0.0:
            models.append(
                BernoulliControlLoss(
                    next(streams),
                    p_collection=self.p_collection_loss,
                    p_distribution=self.p_distribution_loss,
                    recovery=recovery,
                )
            )
        else:
            next(streams)
        if self.ge_p_good_to_bad > 0.0:
            models.append(
                GilbertElliottControlLoss(
                    next(streams),
                    p_good_to_bad=self.ge_p_good_to_bad,
                    p_bad_to_good=self.ge_p_bad_to_good,
                    loss_bad=self.ge_loss_bad,
                    recovery=recovery,
                )
            )
        else:
            next(streams)
        if self.p_clock_glitch > 0.0:
            models.append(
                ClockGlitchFaults(
                    p_glitch=self.p_clock_glitch,
                    rng=next(streams),
                    recovery=recovery,
                )
            )
        return CompositeFaultModel(models, recovery=recovery)
