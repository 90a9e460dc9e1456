"""Pluggable arbitration policies -- the scheduler zoo.

The paper argues the ring's control channel gives *inherent* support for
EDF, but never publishes the promised comparison against conventional
policies.  This module makes the arbitration policy pluggable so that
comparison can be run: a :class:`SchedulingPolicy` decides (a) how a
node orders its local transmit queue and (b) how the head message's
urgency is *encoded into the 5-bit Table 1 priority field* that the
collection/distribution arbitration sorts on.  The MAC machinery --
request composition, the two-phase TCMA sweep, clock hand-over -- is
policy-agnostic: it always grants the numerically highest field value.

Three policies ship:

``edf``
    The paper's policy: the message laxity is compressed through a
    :class:`~repro.core.mapping.LaxityMapping` (logarithmic by default).
    Laxity-table ablations are expressed as alternative mappings via
    :attr:`~repro.sim.runner.RunOptions.mapping`, not as separate
    policies.
``rm``
    Rate monotonic: the priority field encodes the *rate* of the
    releasing connection -- a static ``log2`` bucket of the period, so a
    shorter period always outranks a longer one (up to the bucket
    quantisation; ties resolve by ring position, the usual static
    tie-break).  Deadline-bearing messages without a period (sporadic
    best-effort traffic) fall back to their relative deadline, i.e.
    deadline-monotonic, the natural RM generalisation.
``fifo``
    First-in-first-out: the priority field encodes *release order* as a
    ``log2`` bucket of the message age, so older messages outrank newer
    ones.  Exact global FIFO cannot fit a 5-bit field; the encoding is
    FIFO up to the bucket quantisation, which is the honest analogue of
    what a priority-field MAC can express.

Both static encoders saturate after :data:`RM_PERIOD_HORIZON_LOG2` /
:data:`FIFO_AGE_HORIZON_LOG2` doublings.  Those constants are
load-bearing: each must equal the width of the Table 1 class bands
(``hi - lo``, 14 levels for both deadline classes) or an encoded level
would leave its class band and break the strict class precedence
(pinned by ``tests/core/test_policy.py``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.mapping import LaxityMapping
from repro.core.messages import Message
from repro.core.priorities import TrafficClass, class_priority_range

#: ``log2`` saturation horizon of the RM period encoder: periods up to
#: ``2**(RM_PERIOD_HORIZON_LOG2 + 1) - 1`` slots get distinct rate
#: levels; longer periods all land on the class's least urgent level.
#: Must equal the class band width, or ``hi - bucket`` would fall out of
#: the class band.
RM_PERIOD_HORIZON_LOG2 = 14

#: ``log2`` saturation horizon of the FIFO age encoder: messages older
#: than ``2**FIFO_AGE_HORIZON_LOG2 - 1`` slots all saturate at the
#: class's most urgent level.  Same band-width invariant as above.
FIFO_AGE_HORIZON_LOG2 = 14

#: The youngest age the FIFO encoder saturates at: ``age + 1`` reaches
#: ``2**FIFO_AGE_HORIZON_LOG2``, the top ``log2`` bucket.
_FIFO_AGE_SATURATED = (1 << FIFO_AGE_HORIZON_LOG2) - 1


def rate_priority(period_slots: int, traffic_class: TrafficClass) -> int:
    """Static rate-monotonic level: shorter period, higher priority.

    Periods are bucketed logarithmically (period ``1`` maps to the most
    urgent level, each doubling drops one level) so the 14 levels of a
    class band cover rates across four decades of period.
    """
    lo, hi = class_priority_range(traffic_class)
    if period_slots <= 1:
        return hi
    bucket = int(math.log2(period_slots))
    if bucket > RM_PERIOD_HORIZON_LOG2:
        bucket = RM_PERIOD_HORIZON_LOG2
    return hi - bucket


def age_priority(age_slots: int, traffic_class: TrafficClass) -> int:
    """FIFO level: the older the message, the higher the priority.

    A freshly released message starts at the class's least urgent level
    and climbs one level per ``log2`` doubling of its age, so long-waiting
    messages eventually outrank everything in their class -- FIFO up to
    the bucket quantisation.
    """
    lo, hi = class_priority_range(traffic_class)
    if age_slots <= 0:
        return lo
    bucket = int(math.log2(age_slots + 1))
    if bucket > FIFO_AGE_HORIZON_LOG2:
        bucket = FIFO_AGE_HORIZON_LOG2
    return lo + bucket


def _static_rank(message: Message) -> int:
    """A message's RM rank: its release period, in slots.

    Messages released outside a periodic connection carry no period;
    they rank by their relative deadline instead (deadline-monotonic),
    which coincides with RM exactly when deadline equals period.
    """
    period = message.period_slots
    if period is None:
        assert message.deadline_slot is not None  # deadline classes only
        period = message.deadline_slot - message.created_slot
    return period if period > 0 else 1


class SchedulingPolicy(ABC):
    """How deadline-bearing traffic is ordered and priority-encoded.

    A policy speaks at two points of the pipeline: `queue_key` orders a
    node's local transmit queue (which message the node requests), and
    `request_priority` encodes that head message into the 5-bit field
    (which node the master grants).  Non-real-time traffic is untouched:
    it is FIFO locally and pinned at ``PRIO_NON_REAL_TIME`` on the wire
    regardless of policy.

    ``cache_token`` names the policy's priority-equivalence bucket for a
    message at a slot; the protocol memoises ``request_priority`` per
    ``(token, class)``, so tokens must change exactly when the encoded
    priority may.
    """

    #: Registry name (also the campaign-axis / CLI value).
    name: str = ""

    @abstractmethod
    def queue_key(self, message: Message) -> int:
        """Primary heap key for the local queue (smaller serves first)."""

    @abstractmethod
    def cache_token(self, message: Message, current_slot: int) -> int:
        """Priority-equivalence token of ``message`` at ``current_slot``."""

    @abstractmethod
    def request_priority(
        self,
        message: Message,
        current_slot: int,
        mapping: LaxityMapping,
        traffic_class: TrafficClass,
    ) -> int:
        """The 5-bit priority level requested for ``message``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))


class EdfPolicy(SchedulingPolicy):
    """The paper's policy: earliest deadline first via mapped laxity."""

    name = "edf"

    def queue_key(self, message: Message) -> int:
        assert message.deadline_slot is not None
        return message.deadline_slot

    def cache_token(self, message: Message, current_slot: int) -> int:
        laxity = message.laxity(current_slot)
        assert laxity is not None
        return laxity

    def request_priority(
        self,
        message: Message,
        current_slot: int,
        mapping: LaxityMapping,
        traffic_class: TrafficClass,
    ) -> int:
        laxity = message.laxity(current_slot)
        assert laxity is not None
        return mapping.priority_for(laxity, traffic_class)


class RmPolicy(SchedulingPolicy):
    """Rate monotonic: static priority by connection period."""

    name = "rm"

    def queue_key(self, message: Message) -> int:
        return _static_rank(message)

    def cache_token(self, message: Message, current_slot: int) -> int:
        # Static per message: one cache entry per distinct period.
        return _static_rank(message)

    def request_priority(
        self,
        message: Message,
        current_slot: int,
        mapping: LaxityMapping,
        traffic_class: TrafficClass,
    ) -> int:
        return rate_priority(_static_rank(message), traffic_class)


class FifoPolicy(SchedulingPolicy):
    """First-in-first-out: priority encodes release order (via age)."""

    name = "fifo"

    def queue_key(self, message: Message) -> int:
        # Ties (same release slot) resolve by msg_id -- arrival order --
        # through the heap's (key, msg_id) tuple comparison.
        return message.created_slot

    def cache_token(self, message: Message, current_slot: int) -> int:
        # From this age on ``age_priority`` returns one level: saturating
        # the token there keeps the memo bounded on an overloaded ring.
        age = current_slot - message.created_slot
        return age if age < _FIFO_AGE_SATURATED else _FIFO_AGE_SATURATED

    def request_priority(
        self,
        message: Message,
        current_slot: int,
        mapping: LaxityMapping,
        traffic_class: TrafficClass,
    ) -> int:
        return age_priority(current_slot - message.created_slot, traffic_class)


#: Policy names accepted by :func:`resolve_policy` (and therefore by
#: ``ScenarioConfig.policy``, ``RunOptions.policy``, campaign axes and
#: the CLI).
POLICIES: tuple[str, ...] = ("edf", "rm", "fifo")

_POLICY_FACTORIES: dict[str, type[SchedulingPolicy]] = {
    "edf": EdfPolicy,
    "rm": RmPolicy,
    "fifo": FifoPolicy,
}


def resolve_policy(policy: "SchedulingPolicy | str | None") -> SchedulingPolicy:
    """Resolve a policy name (or instance, or ``None``) to an instance.

    ``None`` means the default -- EDF, the paper's protocol.  Strings
    are looked up in the registry; instances pass through, so bespoke
    :class:`SchedulingPolicy` subclasses can be injected directly via
    :attr:`~repro.sim.runner.RunOptions.policy`.
    """
    if policy is None:
        return EdfPolicy()
    if isinstance(policy, SchedulingPolicy):
        return policy
    factory = _POLICY_FACTORIES.get(policy)
    if factory is None:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose from {POLICIES}"
        )
    return factory()
