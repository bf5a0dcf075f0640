"""Per-core private cache hierarchy: L1D + inclusive private L2.

Responsibilities:

- Serve core-side reads (``request_read``) and writes/locks
  (``request_write``) with hit/miss/fill timing, issuing GetS/GetX to the
  directory on misses and merging concurrent requests per line (MSHRs).
- Honour cacheline *locks*: remote INV/DOWNGRADE that hit a locked line
  are deferred until the lock view reports the line unlocked
  (:meth:`notify_unlock`), and locked ways are never replacement victims.
- Notify the core (``on_line_lost``) whenever a line leaves the private
  hierarchy — the hook TSO load-speculation squashing hangs off.

Inclusion: L1D ⊆ L2.  Evicting an L2 line back-invalidates the L1 copy,
which is why L2 victim selection also excludes lines locked in the L1.

Hot-path design (see ARCHITECTURE.md, hot-path invariants): an L1 hit
with a zero configured hit latency completes with *no event-queue entry
at all* — the callback goes through :meth:`EventQueue.call_soon`, which
runs it right after the in-flight event returns.  Legal only when the
queue confirms nothing else is pending at the current cycle, which makes
the shortcut exactly identical to posting a delay-0 callback (the
callback is deliberately NOT invoked inline: the requester may sit
inside a fetch/dispatch/wakeup loop whose remaining iterations must run
first).  ``REPRO_NO_FASTPATH=1`` disables every shortcut so equivalence
can be asserted A/B in tests.  Internal fill completions with no
continuation skip the queue entirely.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Protocol

from repro.common.config import MemoryConfig
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.cache import CacheArray
from repro.mem.coherence import (
    DIRECTORY_NODE,
    CoherenceMessage,
    MESIState,
    MessageKind,
)
from repro.mem.interconnect import Interconnect

#: Cycles between retries of a fill blocked by locked ways.
FILL_RETRY_CYCLES = 8


def _noop() -> None:
    """Shared no-effect continuation (identity-compared by fast paths)."""


class LockView(Protocol):
    """What the hierarchy needs to know about locked lines (the AQ)."""

    def is_line_locked(self, line: int) -> bool: ...

    def locked_l1_ways(self, set_index: int) -> set[int]: ...


#: Shared empty lock result (read-only by contract; see LockView).
_EMPTY_WAYS: set[int] = set()


class _NoLocks:
    """Default lock view: nothing is ever locked."""

    def is_line_locked(self, line: int) -> bool:
        return False

    def locked_l1_ways(self, set_index: int) -> set[int]:
        return _EMPTY_WAYS


class _Mshr:
    """One in-flight miss: the request sent plus the merged waiters.

    Waiters are plain ``(need_write, callback, arg)`` tuples and the MSHR
    objects themselves are pooled by the hierarchy (``_recycle_mshr``) —
    miss handling is the steady-state path of every workload with a
    working set beyond the L1, so it allocates nothing once warm.
    """

    __slots__ = ("line", "requested_write", "waiters")

    def __init__(self, line: int, requested_write: bool) -> None:
        self.line = line
        self.requested_write = requested_write
        self.waiters: List[tuple] = []


#: Upper bound on pooled _Mshr objects per hierarchy.
_MSHR_POOL_LIMIT = 32


class PrivateHierarchy:
    """One core's private L1D + L2, attached to the interconnect."""

    def __init__(
        self,
        core_id: int,
        queue: EventQueue,
        network: Interconnect,
        memory_config: MemoryConfig,
        stats: StatsRegistry,
    ) -> None:
        self.core_id = core_id
        self._queue = queue
        self._network = network
        self._config = memory_config
        self._stats = stats.scoped("mem")
        # Pre-bound access-path counters (no per-event key hashing).
        self._c_l1_hits = self._stats.counter("l1_hits")
        self._c_l2_hits = self._stats.counter("l2_hits")
        self._c_misses = self._stats.counter("misses")
        self._c_invalidations = self._stats.counter("invalidations")
        self._c_l2_evictions = self._stats.counter("l2_evictions")
        self._l1 = CacheArray(memory_config.l1d)
        self._l2 = CacheArray(memory_config.l2)
        self._l1_hit_latency = memory_config.l1d.hit_latency
        self._l2_hit_latency = memory_config.l2.hit_latency
        #: REPRO_NO_FASTPATH=1 is the A/B escape hatch disabling every
        #: hot-path shortcut (used by the equivalence tests).
        self._shortcuts = os.environ.get("REPRO_NO_FASTPATH") != "1"
        #: Zero-entry hit completion is additionally only legal at zero
        #: configured L1 hit latency (no simulated time may pass).
        self._fastpath = self._shortcuts and self._l1_hit_latency == 0
        self._state: Dict[int, MESIState] = {}
        #: Bumped on every MESI-state change (grant, downgrade, invalidate,
        #: eviction).  Equal values at two instants prove ``_state`` is
        #: identical at those instants — the spin fast-forward signature
        #: compares this instead of serializing the whole dict.
        self.state_epoch = 0
        self._mshrs: Dict[int, _Mshr] = {}
        self._mshr_pool: List[_Mshr] = []
        self._deferred: Dict[int, List[CoherenceMessage]] = {}
        #: Blocked-fill retries currently in flight (the closures posted
        #: by ``_fill_l1_then``/``_install``).  Tracked because the spin
        #: fast-forward engine cannot identify a closure's owner when it
        #: scans the event queue — parking is only legal when this is 0.
        self._fill_retries = 0
        #: Lines a parked core's spin loop is reading (set by the spin
        #: fast-forward engine at park, cleared at unpark).  Used for
        #: wake-cause classification and the directory sharer audit.
        self.spin_watch: frozenset[int] = frozenset()
        self.lock_view: LockView = _NoLocks()
        #: Called when a line leaves the hierarchy (Inv or L2 eviction).
        self.on_line_lost: Callable[[int], None] = lambda line: None
        #: The core's probe table (l2_evict / defer), None unless
        #: observed (see repro.uarch.probe).
        self.probe = None
        network.register(core_id, self.on_message)

    # ------------------------------------------------------------------
    # core-facing API

    def state_of(self, line: int) -> MESIState:
        return self._state.get(line, MESIState.INVALID)

    def has_write_permission(self, line: int) -> bool:
        """Locality probe: writable (M/E) somewhere in L1/L2 right now."""
        return self.state_of(line).writable

    def in_l1(self, line: int) -> bool:
        return self._l1.lookup(line, touch=False) is not None

    def l1_location(self, line: int) -> Optional[tuple[int, int]]:
        return self._l1.lookup(line, touch=False)

    def request_read(self, line: int, callback: Callable, arg=None) -> None:
        """Make ``line`` readable; fire ``callback`` when data is ready.

        ``arg`` (when not None) is handed to ``callback`` at completion
        time — the core passes the instruction through the queue entry
        instead of closing over it (see :meth:`EventQueue.post1`).
        """
        self._access(line, need_write=False, callback=callback, arg=arg)

    def request_write(self, line: int, callback: Callable, arg=None) -> None:
        """Make ``line`` writable in the L1 (fill + GetX as needed)."""
        self._access(line, need_write=True, callback=callback, arg=arg)

    def _access(
        self, line: int, need_write: bool, callback: Callable, arg=None
    ) -> None:
        state = self._state.get(line, MESIState.INVALID)
        satisfied = state.writable if need_write else state.readable
        if satisfied:
            if self._l1.lookup(line) is not None:
                self._c_l1_hits.add()
                # Zero-entry fast path.  Legal only when (a) the
                # configured L1 hit latency is 0, so no simulated time
                # may pass, and (b) no other entry is pending at the
                # current cycle, so a posted delay-0 callback would run
                # next with nothing in between — call_soon is then
                # exactly that, minus the queue entry (see its
                # docstring for why inline invocation would NOT be
                # equivalent).
                if self._fastpath and self._queue.idle_now():
                    if arg is None:
                        self._queue.call_soon(callback)
                    else:
                        self._queue.call_soon1(callback, arg)
                    return
                if arg is None:
                    self._queue.post(self._l1_hit_latency, callback)
                else:
                    self._queue.post1(self._l1_hit_latency, callback, arg)
            else:
                self._c_l2_hits.add()
                self._fill_l1_then(line, self._l2_hit_latency, callback, arg)
            return
        self._c_misses.add()
        mshr = self._mshrs.get(line)
        if mshr is not None:
            mshr.waiters.append((need_write, callback, arg))
            if need_write and not mshr.requested_write:
                # The in-flight GetS will not suffice; a GetX follows when
                # the response arrives (handled in _on_data).
                self._stats.bump("upgrade_after_gets")
            return
        pool = self._mshr_pool
        if pool:
            mshr = pool.pop()
            mshr.line = line
            mshr.requested_write = need_write
        else:
            mshr = _Mshr(line, need_write)
        mshr.waiters.append((need_write, callback, arg))
        self._mshrs[line] = mshr
        kind = MessageKind.GET_X if need_write else MessageKind.GET_S
        self._network.send_msg(kind, line, self.core_id, DIRECTORY_NODE)

    def _fill_l1_then(
        self, line: int, latency: int, callback: Callable, arg=None
    ) -> None:
        """Ensure L1 presence (line already valid in L2), then callback.

        Retries when every way of the L1 set is locked; the watchdog is
        what eventually unjams that case.
        """
        set_index = self._l1.set_of(line)
        filled = self._l1.fill(
            line, excluded_ways=self.lock_view.locked_l1_ways(set_index)
        )
        if filled is None:
            self._stats.bump("l1_fill_blocked")
            self._fill_retries += 1

            def retry() -> None:
                self._fill_retries -= 1
                self._fill_l1_then(line, latency, callback, arg)

            self._queue.post(FILL_RETRY_CYCLES, retry)
            return
        if callback is _noop and latency == 0 and self._shortcuts:
            # Nothing to run and no time to pass: skip the queue.  (A
            # popped no-op event has no observable effect, so this is
            # unconditionally equivalent regardless of hit latency;
            # gated on REPRO_NO_FASTPATH so the tests A/B everything.)
            return
        if arg is None:
            self._queue.post(latency, callback)
        else:
            self._queue.post1(latency, callback, arg)

    # ------------------------------------------------------------------
    # network-facing handlers

    def on_message(self, message: CoherenceMessage) -> None:
        kind = message.kind
        if kind in (MessageKind.DATA_E, MessageKind.DATA_S, MessageKind.DATA_M):
            self._on_data(message)
        elif kind is MessageKind.INV:
            self._on_invalidate(message)
        elif kind is MessageKind.DOWNGRADE:
            self._on_downgrade(message)
        else:
            raise SimulationError(f"core {self.core_id} got unexpected {message}")

    def _on_data(self, message: CoherenceMessage) -> None:
        line = message.line
        mshr = self._mshrs.pop(line, None)
        if mshr is None:
            raise SimulationError(
                f"core {self.core_id}: data for line {line:#x} without MSHR"
            )
        granted = {
            MessageKind.DATA_E: MESIState.EXCLUSIVE,
            MessageKind.DATA_S: MESIState.SHARED,
            MessageKind.DATA_M: MESIState.MODIFIED,
        }[message.kind]
        self.state_epoch += 1
        self._state[line] = granted
        # Tell the directory the grant landed so it can serve the next
        # request for this line (closes the stale-grant ownership race).
        self._network.send_msg(
            MessageKind.UNBLOCK, line, self.core_id, DIRECTORY_NODE
        )
        self._install(line)
        waiters = mshr.waiters
        fill_latency = self._l1_hit_latency
        if granted.writable and self._shortcuts:
            # Every waiter is satisfied and the seed's per-waiter posts
            # were consecutive (nothing could be posted between them), so
            # one batch event running them back-to-back at the first
            # post's position is exactly order-equivalent: any other
            # event at that cycle has a strictly smaller or larger order
            # counter and drains entirely before or after the batch.
            if len(waiters) == 1:
                need_write, callback, arg = waiters[0]
                if arg is None:
                    self._queue.post(fill_latency, callback)
                else:
                    self._queue.post1(fill_latency, callback, arg)
                self._recycle_mshr(mshr)
            else:
                self._queue.post1(fill_latency, self._run_waiters_cb, mshr)
            return
        unsatisfied: Optional[List[tuple]] = None
        for waiter in waiters:
            if waiter[0] and not granted.writable:
                if unsatisfied is None:
                    unsatisfied = []
                unsatisfied.append(waiter)
            elif waiter[2] is None:
                self._queue.post(fill_latency, waiter[1])
            else:
                self._queue.post1(fill_latency, waiter[1], waiter[2])
        if unsatisfied is not None:
            for _, callback, arg in unsatisfied:
                # The grant was only S but this waiter needs write
                # permission: go around again with a GetX (upgrade).
                self._access(line, need_write=True, callback=callback, arg=arg)
        self._recycle_mshr(mshr)

    def _run_waiters_cb(self, mshr: _Mshr) -> None:
        """Batched MSHR completion: run all merged waiters in order."""
        for need_write, callback, arg in mshr.waiters:
            if arg is None:
                callback()
            else:
                callback(arg)
        self._recycle_mshr(mshr)

    def _recycle_mshr(self, mshr: _Mshr) -> None:
        if len(self._mshr_pool) < _MSHR_POOL_LIMIT:
            mshr.waiters.clear()
            self._mshr_pool.append(mshr)

    def _install(self, line: int) -> None:
        """Fill L2 then L1, cascading evictions (L2 is inclusive of L1)."""
        l2_excluded = self._l2_excluded_ways(line)
        filled = self._l2.fill(
            line, excluded_ways=l2_excluded, on_evict=self._evict_from_l2
        )
        if filled is None:
            # All L2 ways held by locked/in-flight lines.  Keep the line
            # coherence-resident but uncached; retry the install.
            self._stats.bump("l2_fill_blocked")
            self._fill_retries += 1

            def retry() -> None:
                self._fill_retries -= 1
                self._install(line)

            self._queue.post(FILL_RETRY_CYCLES, retry)
            return
        self._fill_l1_then(line, 0, _noop)

    def _l2_excluded_ways(self, line: int) -> set[int]:
        """L2 ways that cannot be victims for a fill of ``line``.

        A way is excluded when its line is locked in the L1 (inclusion
        would force evicting the locked L1 copy) or has an in-flight MSHR
        (an upgrade response would find the line gone).
        """
        set_index = self._l2.set_of(line)
        excluded = set()
        for way, resident in enumerate(self._l2._lines[set_index]):
            if resident is None:
                continue
            if self.lock_view.is_line_locked(resident) or resident in self._mshrs:
                excluded.add(way)
        return excluded

    def _evict_from_l2(self, line: int) -> None:
        probe = self.probe
        if probe is not None and probe.l2_evict is not None:
            probe.l2_evict(line)
        self._c_l2_evictions.add()
        self._l1.invalidate(line)
        self.state_epoch += 1
        self._state.pop(line, None)
        self.on_line_lost(line)
        self._network.send_msg(
            MessageKind.PUT_LINE, line, self.core_id, DIRECTORY_NODE
        )

    def _on_invalidate(self, message: CoherenceMessage) -> None:
        if self.lock_view.is_line_locked(message.line):
            self._stats.bump("deferred_inv")
            message.retained = True
            self._deferred.setdefault(message.line, []).append(message)
            probe = self.probe
            if probe is not None and probe.defer is not None:
                probe.defer(message.line, "inv")
            return
        line = message.line
        if self._state.get(line, MESIState.INVALID) is not MESIState.INVALID:
            self._c_invalidations.add()
            self._l1.invalidate(line)
            self._l2.invalidate(line)
            self.state_epoch += 1
            self._state.pop(line, None)
            self.on_line_lost(line)
        self._network.send_msg(
            MessageKind.INV_ACK,
            line,
            self.core_id,
            DIRECTORY_NODE,
            message.transaction,
        )

    def _on_downgrade(self, message: CoherenceMessage) -> None:
        if self.lock_view.is_line_locked(message.line):
            self._stats.bump("deferred_downgrade")
            message.retained = True
            self._deferred.setdefault(message.line, []).append(message)
            probe = self.probe
            if probe is not None and probe.defer is not None:
                probe.defer(message.line, "downgrade")
            return
        line = message.line
        if self._state.get(line, MESIState.INVALID).writable:
            self.state_epoch += 1
            self._state[line] = MESIState.SHARED
        self._network.send_msg(
            MessageKind.DOWNGRADE_ACK,
            line,
            self.core_id,
            DIRECTORY_NODE,
            message.transaction,
        )

    # ------------------------------------------------------------------
    # lock integration

    def notify_unlock(self, line: int) -> None:
        """The AQ reports ``line`` fully unlocked: serve deferred requests."""
        deferred = self._deferred.pop(line, None)
        if not deferred:
            return
        self._stats.bump("unlock_replays", len(deferred))
        for message in deferred:
            # Clear the retention mark before replay; the handler re-sets
            # it if the line got locked again in the meantime, otherwise
            # the message is done and goes back to the pool.
            message.retained = False
            self.on_message(message)
            self._network.release(message)

    # ------------------------------------------------------------------
    # spin fast-forward integration

    def can_park(self) -> bool:
        """True when the hierarchy holds no in-flight state: no MSHRs,
        no deferred remote requests, no blocked-fill retry closures in
        the event queue.  A parked core's hierarchy must be completely
        quiescent — its only future activity may be the remote
        INV/DOWNGRADE that wakes the core."""
        return (
            not self._mshrs
            and not self._deferred
            and self._fill_retries == 0
        )

    def watch_for_park(self, lines, hook) -> None:
        """Register the spin watch set and the interconnect wake hook."""
        self.spin_watch = frozenset(lines)
        self._network.watch_node(self.core_id, hook)

    def unwatch_for_park(self) -> None:
        self._network.unwatch_node(self.core_id)
        self.spin_watch = frozenset()

    def deferred_count(self, line: int) -> int:
        return len(self._deferred.get(line, ()))

    def deferred_lines(self) -> dict[int, int]:
        """Deferred-request counts by line (invariant-audit introspection).

        On a quiesced system every deferral must have been replayed (a
        lock lift schedules ``notify_unlock``), so any residue here on
        an unlocked line is a missed-replay bug.
        """
        return {line: len(msgs) for line, msgs in self._deferred.items() if msgs}
