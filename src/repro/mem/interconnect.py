"""Banked crossbar interconnect model.

A fixed per-message latency plus per-endpoint injection serialization:
each node can inject one message per cycle, so bursts from a single node
spread out in time (the property GARNET gives the paper that actually
matters for ordering).  Delivery order between a fixed (src, dst) pair is
FIFO, which the coherence protocol relies on.

The crossbar is *banked* by line address: ``bank_of(line) = line %
num_banks`` statically routes every message of a line through one bank
(O(1), no arbitration state).  Banking is purely structural — the timing
model (injection serialization + fixed latency) is unchanged.  Every
message is delivered by its own event-queue entry.

Hot-path design: :meth:`Interconnect.send_msg` allocates the
:class:`CoherenceMessage` from a free-list pool and recycles it right
after the destination handler returns, so the steady-state message churn
of the directory/L1 exchange allocates nothing.  Handlers that keep a
message alive past their return (deferral and blocked-request queues)
mark it ``retained`` and give it back through :meth:`release` when done.
Handlers and next-injection cycles live in dense lists indexed by
``node + 1`` (the directory is node ``-1``), and deliveries are posted
through ``post1`` with prebound callbacks — no per-message closure.

Debug-mode leak checking: with ``REPRO_POOL_DEBUG=1`` the interconnect
tracks every pooled message a handler retains and :meth:`assert_no_leaks`
(called by ``System.run`` once the queue has drained empty) raises if
any retained message was never released — the retain/release protocol's
equivalent of an ASan leak report.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.coherence import CoherenceMessage, MessageKind

Handler = Callable[[CoherenceMessage], None]

#: Maximum number of recycled messages kept on the free list.
POOL_LIMIT = 512

#: Default number of address banks (overridden via MemoryConfig.llc_banks).
DEFAULT_BANKS = 8


class Interconnect:
    """Banked crossbar: endpoints register handlers; ``send`` routes."""

    def __init__(
        self,
        queue: EventQueue,
        latency: int,
        stats: StatsRegistry,
        banks: int = DEFAULT_BANKS,
    ) -> None:
        if latency < 1:
            raise ValueError("network latency must be >= 1")
        if banks < 1:
            raise ValueError("interconnect banks must be >= 1")
        self._queue = queue
        self._latency = latency
        self._num_banks = banks
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
        # Free list of recycled CoherenceMessages (see send_msg/release).
        self._pool: list[CoherenceMessage] = []
        #: REPRO_POOL_DEBUG=1 turns on retain/release leak tracking.
        self.debug_leaks = os.environ.get("REPRO_POOL_DEBUG") == "1"
        self._retained_live: dict[int, CoherenceMessage] = {}
        #: Spin fast-forward wake hooks: dst node -> callable invoked at
        #: send time, *before* the delivery is posted (see ``send``).
        #: None (not an empty dict) when nobody is parked, so the hot
        #: path pays one attribute load + is-None test.
        self._watchers: Optional[dict] = None

    @property
    def latency(self) -> int:
        return self._latency

    @property
    def num_banks(self) -> int:
        return self._num_banks

    def bank_of(self, line: int) -> int:
        """Static O(1) routing: the bank every message of ``line`` uses."""
        return line % self._num_banks

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
        """Allocate a (pooled) message and inject it."""
        pool = self._pool
        if pool:
            message = pool.pop()
            message.renew(kind, line, src, dst, transaction)
        else:
            message = CoherenceMessage(
                kind=kind, line=line, src=src, dst=dst, transaction=transaction
            )
            message.pooled = True
        self.send(message)

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
        if message.retained:
            if self.debug_leaks and message.pooled:
                self._retained_live[message.msg_id] = message
        elif message.pooled and len(self._pool) < POOL_LIMIT:
            self._pool.append(message)

    def release(self, message: CoherenceMessage) -> None:
        """Return a retained message to the pool once it is fully done.

        Safe to call with any message; only pooled, non-retained ones are
        recycled.
        """
        if message.pooled and not message.retained:
            if self.debug_leaks:
                self._retained_live.pop(message.msg_id, None)
            if len(self._pool) < POOL_LIMIT:
                self._pool.append(message)

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

    # ------------------------------------------------------------------
    # debug-mode leak checking (REPRO_POOL_DEBUG=1)

    def outstanding_retained(self) -> int:
        """Retained pooled messages not yet released (debug mode only)."""
        return len(self._retained_live)

    def assert_no_leaks(self) -> None:
        """Raise if any retained pooled message was never released.

        Only sound once the event queue has drained empty: with no
        messages in flight, every handler-retained message must have
        been replayed and handed back through :meth:`release`.
        """
        if not self._retained_live:
            return
        leaked = ", ".join(
            repr(message) for message in self._retained_live.values()
        )
        raise SimulationError(
            f"{len(self._retained_live)} retained coherence message(s) "
            f"never released: {leaked}"
        )
