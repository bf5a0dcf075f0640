"""Discrete-event simulation kernel.

The whole multicore system runs on one :class:`EventQueue`.  Ties on
cycle are broken by insertion order, which makes every run fully
deterministic.

Components never busy-poll; they schedule a callback for the cycle at
which something happens (a cache response arrives, an instruction's
operands become ready, the watchdog expires, ...).  Squash safety is the
caller's concern: callbacks touching speculative state must check that
the instruction they refer to is still alive (see ``uarch.core``).

Hot-path design: the queue is a hybrid of a **calendar ring** and a
binary heap.  Nearly every event in the simulator has a short delay
(cache latencies, network hops, DRAM — all under 256 cycles), so those
go into a ring of per-cycle buckets: ``post`` is an O(1) list append and
draining a cycle is an O(1) index walk, with no heap sifts at all.  Only
long delays (>= ``RING_CYCLES``, e.g. the deadlock watchdog) fall back
to the heap.  The merge is *exact*: every entry carries the global
``order`` counter, and for any target cycle all heap entries are older
(they were posted at least ``RING_CYCLES`` cycles earlier) than all ring
entries, so draining heap-then-ring per cycle reproduces the strict
``(cycle, order)`` execution order of a pure heap bit-for-bit.

:meth:`EventQueue.post` is the fast path used by the simulator's
internal components — none of them ever cancel, so it skips allocating
an :class:`Event` handle entirely.  :meth:`EventQueue.schedule` keeps
the cancellable API for callers that need it.  :meth:`EventQueue.post1`
additionally carries one argument for the callback: the pipeline posts
hundreds of thousands of per-instruction events per run, and passing the
instruction as a stored argument instead of closing over it skips a
closure (plus cell) allocation per event — the drain loops invoke
``callback(arg)`` directly off the queue entry.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Callable, Optional

Callback = Callable[[], None]

#: Delays shorter than this go to the O(1) calendar ring; longer ones to
#: the heap.  Power of two; covers every fixed latency in the model
#: (DRAM is 240 cycles) with room to spare.
RING_CYCLES = 256
_RING_MASK = RING_CYCLES - 1


class Event:
    """Handle for one cancellable scheduled callback.

    ``cancel()`` turns the queue entry into a no-op; the entry itself
    stays queued and is discarded when popped.
    """

    __slots__ = ("cycle", "order", "callback", "cancelled")

    def __init__(self, cycle: int, order: int, callback: Callback) -> None:
        self.cycle = cycle
        self.order = order
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.cycle != other.cycle:
            return self.cycle < other.cycle
        return self.order < other.order

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(cycle={self.cycle}, order={self.order}, {state})"


class EventQueue:
    """Deterministic hybrid ring/heap event queue with a cycle clock."""

    __slots__ = (
        "_heap",
        "_order",
        "now",
        "_ring",
        "_ring_pos",
        "_ring_count",
        "_ring_next",
        "warp_jumps",
        "_index_cycles",
        "_index_orders",
        "_spliced_posts",
    )

    def __init__(self) -> None:
        # Heap entries are (cycle, order, callback, arg_or_None,
        # handle_or_None); ``arg`` non-None means invoke ``callback(arg)``.
        self._heap: list[tuple] = []
        self._order = 0
        #: Current simulation cycle.  A plain attribute, not a property:
        #: every component reads it on every event, and the descriptor
        #: call was measurable.  External writers would desynchronize
        #: the clock — read-only by convention.
        self.now = 0
        # Ring bucket b holds entries for exactly one in-flight cycle c
        # with c & _RING_MASK == b (no two pending cycles can collide
        # because ring delays are < RING_CYCLES).  Entries are
        # (order, callback, arg_or_None, handle_or_None); _ring_pos[b] is
        # the index of the next unconsumed entry in bucket b.
        self._ring: list[list[tuple]] = [[] for _ in range(RING_CYCLES)]
        self._ring_pos = [0] * RING_CYCLES
        self._ring_count = 0
        # Lower bound on the earliest cycle that may hold a ring entry;
        # advanced lazily while scanning, pulled back by posts.
        self._ring_next = 0
        #: Clock advances of more than one cycle (see _advance).  With
        #: spin fast-forward parking a core's events out of the
        #: queue, these jumps are the "global time-warp": the drain loop
        #: lands directly on the next pending cycle instead of walking
        #: dead buckets.  Diagnostic only — never part of summaries.
        self.warp_jumps = 0
        # Posting-cycle index (see posted_cycle): every clock advance
        # appends the cycle and the first order it may post, so each
        # order's posting cycle is a bisect away.  Pruned to the ring
        # horizon by _advance.
        self._index_cycles = [0]
        self._index_orders = [0]
        # Spliced entry order -> its live twin's posting cycle.
        self._spliced_posts: dict = {}

    def __len__(self) -> int:
        return len(self._heap) + self._ring_count

    def discard(self) -> None:
        """Drop every pending entry, and with it every callback it holds.

        For a finished run only: the clock stays where it is, but
        nothing that was posted will ever run.
        """
        self._heap.clear()
        for bucket in self._ring:
            bucket.clear()
        self._ring_pos = [0] * RING_CYCLES
        self._ring_count = 0

    def schedule(self, delay: int, callback: Callback) -> Event:
        """Schedule ``callback`` ``delay`` cycles from now; cancellable."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        order = self._order
        self._order = order + 1
        cycle = self.now + delay
        event = Event(cycle, order, callback)
        if delay < RING_CYCLES:
            self._ring[cycle & _RING_MASK].append((order, callback, None, event))
            self._ring_count += 1
            if cycle < self._ring_next:
                self._ring_next = cycle
        else:
            heapq.heappush(self._heap, (cycle, order, callback, None, event))
        return event

    def schedule_at(self, cycle: int, callback: Callback) -> Event:
        """Schedule ``callback`` at an absolute cycle (>= now)."""
        return self.schedule(cycle - self.now, callback)

    def post(self, delay: int, callback: Callback) -> None:
        """Fast path: schedule a callback that will never be cancelled.

        Identical ordering semantics to :meth:`schedule` (same sequence
        counter), but no :class:`Event` handle is allocated.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        order = self._order
        self._order = order + 1
        if delay < RING_CYCLES:
            cycle = self.now + delay
            self._ring[cycle & _RING_MASK].append((order, callback, None, None))
            self._ring_count += 1
            if cycle < self._ring_next:
                self._ring_next = cycle
        else:
            heapq.heappush(
                self._heap, (self.now + delay, order, callback, None, None)
            )

    def post1(self, delay: int, callback: Callable, arg) -> None:
        """:meth:`post` with one stored argument for the callback.

        Ordering-identical to ``post(delay, lambda: callback(arg))`` —
        same sequence counter, same bucket — but allocation-free: the
        argument rides in the queue entry and the drain loops call
        ``callback(arg)`` directly.  ``arg`` must not be None (None is
        the no-argument marker in the entry tuple).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        order = self._order
        self._order = order + 1
        if delay < RING_CYCLES:
            cycle = self.now + delay
            self._ring[cycle & _RING_MASK].append((order, callback, arg, None))
            self._ring_count += 1
            if cycle < self._ring_next:
                self._ring_next = cycle
        else:
            heapq.heappush(
                self._heap, (self.now + delay, order, callback, arg, None)
            )

    def post_at(self, cycle: int, callback: Callback) -> None:
        """Fast-path :meth:`post` at an absolute cycle (>= now)."""
        self.post(cycle - self.now, callback)

    # -- spin fast-forward support ------------------------------------
    #
    # The spin fast-forward engine (uarch/spinff.py) needs three things
    # from the kernel that normal components never do: know *when* each
    # pending entry was posted (to replay a parked core's events with
    # the exact order a live run would have produced), physically remove
    # a core's entries from the ring while it is parked, and splice them
    # back at precise bucket positions on wakeup.  The first is the
    # always-on posting-cycle index, paid once per clock advance (never
    # per post or per event); the rest is cold path, run a handful of
    # times per spin episode.

    def _advance(self, cycle: int) -> None:
        """Move the clock to ``cycle`` (> now) and index the first order
        it may post.  Records past the ring horizon can no longer belong
        to a live ring entry and are dropped."""
        if cycle > self.now + 1:
            self.warp_jumps += 1
        self.now = cycle
        cycles = self._index_cycles
        cycles.append(cycle)
        self._index_orders.append(self._order)
        if len(cycles) > 2 * RING_CYCLES:
            floor = cycle - RING_CYCLES
            cut = bisect_right(cycles, floor)
            del cycles[:cut]
            del self._index_orders[:cut]
            if self._spliced_posts:
                self._spliced_posts = {
                    o: c for o, c in self._spliced_posts.items() if c > floor
                }

    def posted_cycle(self, order: int) -> int:
        """The cycle at which the live ring entry with ``order`` was
        posted (by ``post``/``post1``/``schedule``/``post_at``).  A
        :meth:`splice_ring` entry reports the cycle its caller passed:
        the posting cycle of the live twin it replays."""
        cycle = self._spliced_posts.get(order)
        if cycle is not None:
            return cycle
        return self._index_cycles[bisect_right(self._index_orders, order) - 1]

    def ring_cycle_of(self, bucket_index: int) -> int:
        """The in-flight cycle bucket ``bucket_index`` currently serves."""
        return self.now + ((bucket_index - self.now) & _RING_MASK)

    def iter_ring(self):
        """Yield ``(due_cycle, order, callback, arg, handle)`` for every
        live (unconsumed) ring entry, in per-bucket positional order."""
        ring = self._ring
        pos = self._ring_pos
        now = self.now
        for b in range(RING_CYCLES):
            bucket = ring[b]
            p = pos[b]
            if p >= len(bucket):
                continue
            due = now + ((b - now) & _RING_MASK)
            for entry in bucket[p:]:
                yield (due, entry[0], entry[1], entry[2], entry[3])

    def iter_heap(self):
        """Yield ``(due_cycle, order, callback, arg, handle)`` for every
        heap entry (cancelled ones included; callers filter)."""
        for cycle, order, callback, arg, handle in self._heap:
            yield (cycle, order, callback, arg, handle)

    def extract_ring(self, predicate) -> list:
        """Remove every live ring entry matching ``predicate`` and return
        them as ``(due_cycle, order, callback, arg)`` in (due, bucket
        position) order.

        ``predicate(callback, arg)`` decides membership.  Entries with a
        cancellable handle are never extracted (the handle would dangle);
        the spin fast-forward engine only parks handle-free ``post``/
        ``post1`` entries.  The current cycle's bucket may be mid-drain;
        only its unconsumed tail is touched, which leaves the drain
        loops' position bookkeeping exactly consistent.
        """
        ring = self._ring
        pos = self._ring_pos
        now = self.now
        extracted = []
        for b in range(RING_CYCLES):
            bucket = ring[b]
            p = pos[b]
            if p >= len(bucket):
                continue
            due = now + ((b - now) & _RING_MASK)
            keep = []
            removed = 0
            for entry in bucket[p:]:
                if entry[3] is None and predicate(entry[1], entry[2]):
                    extracted.append((due, entry[0], entry[1], entry[2]))
                    removed += 1
                else:
                    keep.append(entry)
            if removed:
                del bucket[p:]
                bucket.extend(keep)
                self._ring_count -= removed
        extracted.sort(key=lambda e: (e[0], e[1]))
        return extracted

    def splice_ring(
        self, due: int, index: int, callback, arg, posted: Optional[int] = None
    ) -> None:
        """Insert an entry into ``due``'s bucket at live position ``index``.

        ``index`` counts from the bucket's current consume position;
        entries already consumed this cycle are unaffected.  The entry
        gets a fresh order counter — ring ordering is positional, so the
        order value only needs to be unique, and a fresh one keeps the
        global counter monotonic.  :meth:`posted_cycle` reports
        ``posted`` for it when given, else the splice cycle.
        """
        if due < self.now:
            raise ValueError(f"cannot splice into the past (due={due})")
        if due - self.now >= RING_CYCLES:
            raise ValueError(f"splice beyond ring horizon (due={due})")
        order = self._order
        self._order = order + 1
        b = due & _RING_MASK
        bucket = self._ring[b]
        p = self._ring_pos[b] + index
        if p > len(bucket):
            p = len(bucket)
        bucket.insert(p, (order, callback, arg, None))
        if posted is not None:
            self._spliced_posts[order] = posted
        self._ring_count += 1
        if due < self._ring_next:
            self._ring_next = due

    def bucket_live_entries(self, due: int) -> list:
        """Live entries of ``due``'s bucket as ``(order, callback, arg)``,
        in consume order (index 0 = next to run at that cycle)."""
        b = due & _RING_MASK
        bucket = self._ring[b]
        p = self._ring_pos[b]
        return [(e[0], e[1], e[2]) for e in bucket[p:]]

    def _scan_ring(self) -> int:
        """Cycle of the earliest pending ring entry (``_ring_count`` > 0).

        Amortized O(1): the scan resumes from ``_ring_next`` and every
        bucket it skips stays skipped until a post pulls the cursor back.
        """
        cycle = self._ring_next
        if cycle < self.now:
            cycle = self.now
        ring = self._ring
        pos = self._ring_pos
        while True:
            b = cycle & _RING_MASK
            if pos[b] < len(ring[b]):
                self._ring_next = cycle
                return cycle
            cycle += 1

    def _pop_ring(self, cycle: int) -> tuple:
        """Consume and return the next entry of ``cycle``'s bucket."""
        b = cycle & _RING_MASK
        bucket = self._ring[b]
        p = self._ring_pos[b]
        entry = bucket[p]
        p += 1
        self._ring_count -= 1
        if p == len(bucket):
            bucket.clear()
            self._ring_pos[b] = 0
        else:
            self._ring_pos[b] = p
        return entry

    def run_next(self) -> bool:
        """Pop and run the next non-cancelled event.

        Returns False when the queue is empty.
        """
        heap = self._heap
        while True:
            if self._ring_count:
                ring_cycle = self._scan_ring()
                if heap and heap[0][0] <= ring_cycle:
                    # Same-cycle heap entries are always older (posted
                    # >= RING_CYCLES cycles earlier => smaller order).
                    cycle, _order, callback, arg, handle = heapq.heappop(heap)
                    if handle is not None and handle.cancelled:
                        continue
                    if cycle != self.now:
                        self._advance(cycle)
                    callback() if arg is None else callback(arg)
                    return True
                _order, callback, arg, handle = self._pop_ring(ring_cycle)
                if handle is not None and handle.cancelled:
                    continue
                if ring_cycle != self.now:
                    self._advance(ring_cycle)
                callback() if arg is None else callback(arg)
                return True
            if heap:
                cycle, _order, callback, arg, handle = heapq.heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                if cycle != self.now:
                    self._advance(cycle)
                callback() if arg is None else callback(arg)
                return True
            return False

    def drain(self, counter: list, max_cycles: int) -> int:
        """Run events until a stop condition; the System.run hot loop.

        ``counter`` is a one-element list holding the number of
        unfinished cores; callbacks (each core's Halt commit) decrement
        it.  Runs exactly the ``run_next`` event sequence and returns

        - ``0`` when ``counter[0]`` reached zero (all cores finished),
        - ``1`` when the queue went empty first (deadlock),
        - ``2`` when ``now`` passed ``max_cycles`` after an event ran
          (runaway run) — checked after every executed callback, like
          the caller loop this inlines, so the same event that would
          have run before the check still runs.

        Equivalence: this is ``while counter[0]: run_next(); check
        max_cycles`` with the per-event method call and the heap/ring
        re-dispatch folded into one loop frame.  Cancelled entries are
        skipped without touching the clock or the checks, exactly as
        ``run_next``'s internal skip loop does.
        """
        heap = self._heap
        ring = self._ring
        pos = self._ring_pos
        heappop = heapq.heappop
        while counter[0]:
            if self._ring_count:
                # _scan_ring, inlined (hot loop: one call frame per event
                # was measurable).  Resumes from _ring_next; every bucket
                # skipped stays skipped until a post pulls the cursor back.
                ring_cycle = self._ring_next
                if ring_cycle < self.now:
                    ring_cycle = self.now
                while True:
                    b = ring_cycle & _RING_MASK
                    bucket = ring[b]
                    if pos[b] < len(bucket):
                        break
                    ring_cycle += 1
                self._ring_next = ring_cycle
                if heap and heap[0][0] <= ring_cycle:
                    # Same-cycle heap entries are always older (posted
                    # >= RING_CYCLES cycles earlier => smaller order).
                    cycle, _order, callback, arg, handle = heappop(heap)
                    if handle is not None and handle.cancelled:
                        continue
                    if cycle != self.now:
                        self._advance(cycle)
                    callback() if arg is None else callback(arg)
                else:
                    p = pos[b]
                    entry = bucket[p]
                    p += 1
                    self._ring_count -= 1
                    if p == len(bucket):
                        bucket.clear()
                        pos[b] = 0
                    else:
                        pos[b] = p
                    _order, callback, arg, handle = entry
                    if handle is not None and handle.cancelled:
                        continue
                    if ring_cycle != self.now:
                        self._advance(ring_cycle)
                    callback() if arg is None else callback(arg)
            elif heap:
                cycle, _order, callback, arg, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                if cycle != self.now:
                    self._advance(cycle)
                callback() if arg is None else callback(arg)
            else:
                return 1
            if self.now > max_cycles:
                return 2
        return 0

    def run_cycle(self) -> Optional[int]:
        """Drain every event of the earliest pending cycle, batched.

        Runs all events scheduled for that cycle (including zero-delay
        events its callbacks add) in the same order ``run_next`` would,
        paying the finish-check and loop overhead once per cycle instead
        of once per event.  Returns the cycle drained, or None if the
        queue was empty.
        """
        heap = self._heap
        if self._ring_count:
            cycle = self._scan_ring()
            if heap and heap[0][0] < cycle:
                cycle = heap[0][0]
        elif heap:
            cycle = heap[0][0]
        else:
            return None
        if cycle != self.now:
            self._advance(cycle)
        # Priority within the cycle: heap (posted >= RING_CYCLES earlier
        # than any ring entry, so smaller order), then ring.
        pop = heapq.heappop
        b = cycle & _RING_MASK
        bucket = self._ring[b]
        pos = self._ring_pos
        while True:
            if heap and heap[0][0] == cycle:
                _cycle, _order, callback, arg, handle = pop(heap)
                if handle is None or not handle.cancelled:
                    callback() if arg is None else callback(arg)
                continue
            if pos[b] < len(bucket):
                p = pos[b]
                pos[b] = p + 1
                self._ring_count -= 1
                _order, callback, arg, handle = bucket[p]
                if handle is None or not handle.cancelled:
                    callback() if arg is None else callback(arg)
                continue
            break
        bucket.clear()
        pos[b] = 0
        return cycle

    def run_until(self, limit_cycle: int) -> None:
        """Run all events scheduled at or before ``limit_cycle``."""
        heap = self._heap
        while True:
            if self._ring_count:
                ring_cycle = self._scan_ring()
                if heap and heap[0][0] <= ring_cycle:
                    cycle = heap[0][0]
                    if cycle > limit_cycle:
                        break
                    _c, _order, callback, arg, handle = heapq.heappop(heap)
                    if handle is not None and handle.cancelled:
                        continue
                    if cycle != self.now:
                        self._advance(cycle)
                    callback() if arg is None else callback(arg)
                    continue
                if ring_cycle > limit_cycle:
                    break
                _order, callback, arg, handle = self._pop_ring(ring_cycle)
                if handle is not None and handle.cancelled:
                    continue
                if ring_cycle != self.now:
                    self._advance(ring_cycle)
                callback() if arg is None else callback(arg)
                continue
            if heap:
                cycle = heap[0][0]
                if cycle > limit_cycle:
                    break
                _c, _order, callback, arg, handle = heapq.heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                if cycle != self.now:
                    self._advance(cycle)
                callback() if arg is None else callback(arg)
                continue
            break
        if self.now < limit_cycle:
            self._advance(limit_cycle)

