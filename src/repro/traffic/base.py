"""The traffic-source interface.

A :class:`TrafficSource` is attached to one node and asked which new
messages it releases into that node's transmit queues -- in every
executed slot, or, if it names its release slots through
:meth:`TrafficSource.next_release_slot`, only in those.  Sources
must be deterministic functions of their construction parameters (all
randomness comes from an explicitly seeded generator) so that simulations
are reproducible bit-for-bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.core.messages import Message


class TrafficSource(ABC):
    """Produces the messages one node releases at each slot."""

    #: Node this source is attached to.
    node: int

    @abstractmethod
    def messages_for_slot(self, slot: int) -> list[Message]:
        """New messages released at the start of ``slot`` (may be empty).

        Every returned message must have ``source == self.node`` and
        ``created_slot == slot``.
        """

    def next_release_slot(self, after: int) -> int | None:
        """A lower bound on the next slot ``>= after`` with a release.

        The engine's release calendar files the source at the returned
        slot and does not call :meth:`messages_for_slot` before it; the
        fast-forward skips up to it.  So the answer may be *early*
        (the source is polled, releases nothing, and is asked again) but
        never *late*: a release in a slot before the returned one would
        be lost.  ``None`` means the source will never release again and
        takes it off the calendar for good.  After each poll at slot
        ``t`` the engine asks again with ``after = t + 1``.

        Overriding this method is the opt-in: a class that does not is
        polled in every executed slot and vetoes fast-forward, which is
        what this default (``after`` itself) spells out.  That is
        required of any source whose release decision is an RNG draw
        *per slot* (skipping a slot would skip its draw and change the
        sample path).  Sources whose releases are a function of the slot
        number override it with the exact answer, and must then not rely
        on being polled in slots they did not name.  A source fed from
        outside the slot loop (:class:`~repro.services.api.MessageInjector`)
        overrides it too -- ``after`` while something is pending, ``None``
        otherwise -- and calls the hook :meth:`bind_wakeup` gave it when
        something arrives.
        """
        return after

    def bind_wakeup(self, wake: Callable[[], None]) -> None:
        """Take the engine's re-filing hook (the default ignores it).

        The engine calls this when it files the source on its release
        calendar.  Calling ``wake()`` later files the source again, at
        its original attachment order, for the next executed slot -- the
        way for a source whose :meth:`next_release_slot` said ``None`` (or
        a later slot) to be polled after all because a release arrived
        from outside the slot loop.
        """


class CompositeSource(TrafficSource):
    """Merges several sources attached to the same node."""

    def __init__(self, node: int, sources: Sequence[TrafficSource]):
        for src in sources:
            if src.node != node:
                raise ValueError(
                    f"source attached to node {src.node} cannot join a "
                    f"composite for node {node}"
                )
        self.node = node
        self.sources = tuple(sources)

    def messages_for_slot(self, slot: int) -> list[Message]:
        out: list[Message] = []
        for src in self.sources:
            out.extend(src.messages_for_slot(slot))
        return out

    def next_release_slot(self, after: int) -> int | None:
        earliest: int | None = None
        for src in self.sources:
            nxt = src.next_release_slot(after)
            if nxt is None:
                continue
            if earliest is None or nxt < earliest:
                earliest = nxt
        return earliest

    def bind_wakeup(self, wake: Callable[[], None]) -> None:
        for src in self.sources:
            src.bind_wakeup(wake)
