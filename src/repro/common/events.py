"""Discrete-event simulation kernel.

The whole multicore system runs on one :class:`EventQueue`.  Ties on
cycle are broken by insertion order, which makes every run fully
deterministic.

Components never busy-poll; they post a callback for the cycle at which
something happens (a cache response arrives, an instruction's operands
become ready, the watchdog expires, ...).  Nothing is ever cancelled: a
callback whose reason has gone away checks that itself and returns.
Squash safety is likewise the caller's concern: callbacks touching
speculative state must check that the instruction they refer to is
still alive (see ``uarch.core``).

The API is what the simulator uses and nothing else: :meth:`post`,
:meth:`post1` and :meth:`post_at` add entries, and :meth:`drain` is the
one run loop.  :meth:`post1` carries one argument for the callback: the
pipeline posts hundreds of thousands of per-instruction events per run,
and passing the instruction as a stored argument instead of closing
over it skips a closure (plus cell) allocation per event — ``drain``
invokes ``callback(arg)`` directly off the queue entry.

Hot-path design: the queue is a hybrid of a **calendar ring** and a
binary heap.  Nearly every event in the simulator has a short delay
(cache latencies, network hops, DRAM — all under 256 cycles), so those
go into a ring of per-cycle buckets: ``post`` is an O(1) list append and
draining a cycle is an O(1) index walk, with no heap sifts at all.  Only
long delays (>= ``RING_CYCLES``, e.g. the deadlock watchdog) fall back
to the heap.  Ring entries are ``(order, callback, arg)`` and heap
entries ``(cycle, order, callback, arg)``; ``arg`` None means invoke
``callback()``.  The merge is *exact*: every entry carries the global
``order`` counter, and for any target cycle all heap entries are older
(they were posted at least ``RING_CYCLES`` cycles earlier) than all ring
entries, so draining heap-then-ring per cycle reproduces the strict
``(cycle, order)`` execution order of a pure heap bit-for-bit.
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
        # Heap entries are (cycle, order, callback, arg_or_None).
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
        # (order, callback, arg_or_None); _ring_pos[b] is the index of
        # the next unconsumed entry in bucket b.
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

    def post(self, delay: int, callback: Callback) -> None:
        """Run ``callback()`` ``delay`` cycles from now.

        Entries posted for the same cycle run in posting order.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        order = self._order
        self._order = order + 1
        if delay < RING_CYCLES:
            cycle = self.now + delay
            self._ring[cycle & _RING_MASK].append((order, callback, None))
            self._ring_count += 1
            if cycle < self._ring_next:
                self._ring_next = cycle
        else:
            heapq.heappush(self._heap, (self.now + delay, order, callback, None))

    def post1(self, delay: int, callback: Callable, arg) -> None:
        """:meth:`post` with one stored argument for the callback.

        Ordering-identical to ``post(delay, lambda: callback(arg))`` —
        same sequence counter, same bucket — but allocation-free: the
        argument rides in the queue entry and :meth:`drain` calls
        ``callback(arg)`` directly.  ``arg`` must not be None (None is
        the no-argument marker in the entry tuple).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        order = self._order
        self._order = order + 1
        if delay < RING_CYCLES:
            cycle = self.now + delay
            self._ring[cycle & _RING_MASK].append((order, callback, arg))
            self._ring_count += 1
            if cycle < self._ring_next:
                self._ring_next = cycle
        else:
            heapq.heappush(self._heap, (self.now + delay, order, callback, arg))

    def post_at(self, cycle: int, callback: Callback) -> None:
        """:meth:`post` at an absolute cycle (>= now)."""
        self.post(cycle - self.now, callback)

    def drain(self, counter: list, limit: int) -> int:
        """Run events in ``(cycle, order)`` order until a stop condition.

        ``counter`` is a one-element list that callbacks decrement; in
        ``System.run`` it holds the number of unfinished cores, and each
        core's Halt commit decrements it.  Returns

        - ``0`` when ``counter[0]`` reached zero (all cores finished),
        - ``1`` when the queue went empty first (deadlock),
        - ``2`` when the next entry is due after ``limit`` (runaway
          run).  That entry stays queued and the clock stays at or
          below ``limit``, so a later ``drain`` resumes in order.

        The limit is checked only when the clock advances, so the
        per-event path pays nothing for it: entries due at the current
        cycle run even if ``now`` is already past ``limit``.
        """
        heap = self._heap
        ring = self._ring
        pos = self._ring_pos
        heappop = heapq.heappop
        while counter[0]:
            if self._ring_count:
                # Earliest pending ring cycle.  Amortized O(1): the scan
                # resumes from _ring_next, and every bucket it skips
                # stays skipped until a post pulls the cursor back.
                cycle = self._ring_next
                if cycle < self.now:
                    cycle = self.now
                while True:
                    b = cycle & _RING_MASK
                    bucket = ring[b]
                    if pos[b] < len(bucket):
                        break
                    cycle += 1
                self._ring_next = cycle
                if heap and heap[0][0] <= cycle:
                    # Same-cycle heap entries are always older (posted
                    # >= RING_CYCLES cycles earlier => smaller order).
                    # bucket None: the next entry is the heap's head.
                    cycle = heap[0][0]
                    bucket = None
            elif heap:
                cycle = heap[0][0]
                bucket = None
            else:
                return 1
            if cycle != self.now:
                if cycle > limit:
                    return 2
                self._advance(cycle)
            if bucket is None:
                _cycle, _order, callback, arg = heappop(heap)
            else:
                p = pos[b]
                _order, callback, arg = bucket[p]
                p += 1
                self._ring_count -= 1
                if p == len(bucket):
                    bucket.clear()
                    pos[b] = 0
                else:
                    pos[b] = p
            callback() if arg is None else callback(arg)
        return 0

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
        posted (by ``post``/``post1``/``post_at``).  A
        :meth:`splice_ring` entry reports the cycle its caller passed:
        the posting cycle of the live twin it replays."""
        cycle = self._spliced_posts.get(order)
        if cycle is not None:
            return cycle
        return self._index_cycles[bisect_right(self._index_orders, order) - 1]

    def iter_ring(self):
        """Yield ``(due_cycle, order, callback, arg)`` for every live
        (unconsumed) ring entry, in per-bucket positional order."""
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
                yield (due,) + entry

    def iter_heap(self):
        """Yield ``(due_cycle, order, callback, arg)`` for every heap
        entry, in heap (not due) order."""
        yield from self._heap

    def extract_ring(self, predicate) -> list:
        """Remove every live ring entry matching ``predicate`` and return
        them as ``(due_cycle, order, callback, arg)`` in (due, bucket
        position) order.

        ``predicate(callback, arg)`` decides membership.  The current
        cycle's bucket may be mid-drain; only its unconsumed tail is
        touched, which leaves the drain loop's position bookkeeping
        exactly consistent.
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
                if predicate(entry[1], entry[2]):
                    extracted.append((due,) + entry)
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
        bucket.insert(p, (order, callback, arg))
        if posted is not None:
            self._spliced_posts[order] = posted
        self._ring_count += 1
        if due < self._ring_next:
            self._ring_next = due

    def bucket_live_entries(self, due: int) -> list:
        """Live entries of ``due``'s bucket as ``(order, callback, arg)``,
        in consume order (index 0 = next to run at that cycle)."""
        b = due & _RING_MASK
        return self._ring[b][self._ring_pos[b]:]
