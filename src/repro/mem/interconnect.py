"""Crossbar interconnect model.

A fixed per-message latency plus per-endpoint injection serialization:
each node can inject one message per cycle, so bursts from a single node
spread out in time (the property GARNET gives the paper that actually
matters for ordering).  Delivery order between a fixed (src, dst) pair is
FIFO, which the coherence protocol relies on.

:meth:`Interconnect.send_msg` builds a fresh :class:`CoherenceMessage`
per send; a handler that queues one past its return (deferral and
blocked-request queues) just keeps the reference.  Handlers and
next-injection cycles live in dense lists indexed by ``node + 1`` (the
directory is node ``-1``).  Every message is delivered by its own
``post1`` event with the prebound :meth:`Interconnect._deliver` — no
per-message closure.  Posting the handler itself would hide deliveries
among the destination's own events, which the spin fast-forward engine
tells apart by callback owner.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.coherence import CoherenceMessage, MessageKind

Handler = Callable[[CoherenceMessage], None]


class Interconnect:
    """Crossbar: endpoints register handlers; ``send`` routes."""

    def __init__(self, queue: EventQueue, latency: int, stats: StatsRegistry) -> None:
        if latency < 1:
            raise ValueError("network latency must be >= 1")
        self._queue = queue
        self._latency = latency
        self._stats = stats.scoped("network")
        self._c_messages = self._stats.counter("messages")
        # Per-kind counters, pre-bound once (enum identity hash beats a
        # formatted string key on every send).
        self._c_kind: Dict[MessageKind, object] = {
            kind: self._stats.counter(f"kind.{kind.value}") for kind in MessageKind
        }
        # Dense per-node tables indexed by node + 1 (directory = -1).
        self._handlers: List[Optional[Handler]] = [None]
        # Next free injection cycle per source endpoint (same indexing).
        self._next_inject: List[int] = [0]
        #: Spin fast-forward wake hooks: dst node -> callable invoked at
        #: send time, *before* the delivery is posted (see ``send``).
        #: None (not an empty dict) when nobody is parked, so the hot
        #: path pays one attribute load + is-None test.
        self._watchers: Optional[dict] = None

    @property
    def latency(self) -> int:
        return self._latency

    def register(self, node: int, handler: Handler) -> None:
        index = node + 1
        handlers = self._handlers
        if index >= len(handlers):
            grow = index + 1 - len(handlers)
            handlers.extend([None] * grow)
            self._next_inject.extend([0] * grow)
        if handlers[index] is not None:
            raise ValueError(f"node {node} already registered")
        handlers[index] = handler

    def send_msg(
        self,
        kind: MessageKind,
        line: int,
        src: int,
        dst: int,
        transaction: int = -1,
    ) -> None:
        """Build a message and inject it."""
        self.send(CoherenceMessage(kind, line, src, dst, transaction))

    def send(self, message: CoherenceMessage) -> None:
        """Inject a message; it is delivered after injection + latency."""
        index = message.dst + 1
        handlers = self._handlers
        if index >= len(handlers) or handlers[index] is None:
            raise ValueError(f"no handler registered for node {message.dst}")
        queue = self._queue
        now = queue.now
        src_index = message.src + 1
        next_inject = self._next_inject
        if src_index >= len(next_inject):
            next_inject.extend([0] * (src_index + 1 - len(next_inject)))
        inject_at = next_inject[src_index]
        if inject_at < now:
            inject_at = now
        next_inject[src_index] = inject_at + 1
        self._c_messages.add()
        self._c_kind[message.kind].add()
        delay = (inject_at - now) + self._latency
        watchers = self._watchers
        if watchers is not None:
            hook = watchers.get(message.dst)
            if hook is not None:
                # Fires before the delivery is posted, so a wakeup the
                # hook schedules for this cycle's lap boundary drains
                # ahead of the delivery — transit is >= latency >= the
                # spin period, so the parked core is always live again
                # before the message lands.
                hook(message, now, now + delay)
        queue.post1(delay, self._deliver, message)

    def _deliver(self, message: CoherenceMessage) -> None:
        self._handlers[message.dst + 1](message)

    # ------------------------------------------------------------------
    # spin fast-forward wake hooks

    def watch_node(self, node: int, hook) -> None:
        """Invoke ``hook(message, send_cycle, due_cycle)`` on every send
        targeting ``node``, at send time, before the delivery posts."""
        watchers = self._watchers
        if watchers is None:
            watchers = self._watchers = {}
        watchers[node] = hook

    def unwatch_node(self, node: int) -> None:
        watchers = self._watchers
        if watchers is not None:
            watchers.pop(node, None)
            if not watchers:
                self._watchers = None
