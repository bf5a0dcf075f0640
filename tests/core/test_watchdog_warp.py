"""Watchdog deadlines vs. the global time-warp.

The spin fast-forward engine (``repro.uarch.spinff``) physically removes
parked cores' events from the calendar, which lets ``EventQueue.drain``
warp straight to the next pending event.  Two properties keep that legal
around the deadlock watchdog:

- an armed watchdog is a *real* ``post_at`` queue entry, so a warp can
  land exactly on the deadline but never jump past it, and
- a check that fires while the core's atomic queue is empty is a
  guaranteed no-op (nothing is locked, so there is nothing to flush) at
  the same absolute cycle in both the fast and reference runs — which is
  why spinff may park a core whose watchdog is still armed.
"""

from __future__ import annotations

from repro.common.events import RING_CYCLES, EventQueue
from repro.common.stats import StatsRegistry
from repro.core.atomic_queue import AtomicQueue
from repro.core.watchdog import DeadlockWatchdog
from repro.isa.instructions import AtomicRMW, MemoryOperand
from repro.uarch.dynins import DynInstr


def atomic(seq: int) -> DynInstr:
    return DynInstr(seq, AtomicRMW(dst=1, imm=1, mem=MemoryOperand(2)), seq)


def make(threshold: int = 100):
    queue = EventQueue()
    stats = StatsRegistry()
    aq = AtomicQueue(4, stats, on_fully_unlocked=lambda line: None)
    flushes = []

    def flush(entry):
        flushes.append((queue.now, entry))
        aq.squash_from(entry.seq)

    watchdog = DeadlockWatchdog(queue, aq, threshold, True, flush, stats)
    return queue, aq, watchdog, flushes


def drain(queue: EventQueue, finish_at: int) -> None:
    """Run the queue the way ``System.run`` does (the warping loop)."""
    counter = [1]

    def finish() -> None:
        counter[0] = 0

    queue.post_at(finish_at, finish)
    assert queue.drain(counter, finish_at + 1) == 0


class TestArmedDeadline:
    def test_armed_and_deadline_track_the_pending_check(self):
        queue, aq, watchdog, _ = make(threshold=100)
        assert not watchdog.armed
        assert watchdog.deadline is None
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        assert watchdog.armed
        assert watchdog.deadline == 100
        aq.deallocate(entry)
        # Disarming only happens when the check actually fires: the
        # entry is a real queue event, never cancelled early.
        assert watchdog.armed
        while queue.run_next():
            pass
        assert not watchdog.armed
        assert watchdog.deadline is None


class TestWarpOrdering:
    def test_warp_lands_on_deadline_not_past_it(self):
        """An otherwise-empty calendar (every spinning core parked) must
        warp to the deadline cycle exactly, and the flush must run
        there — not at the warp target beyond it."""
        queue, aq, watchdog, flushes = make(threshold=100)
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        drain(queue, finish_at=5000)
        assert [(cycle, e) for cycle, e in flushes] == [(100, entry)]
        assert watchdog.timeouts == 1
        # The gap from cycle 0 to the deadline was warped, not stepped.
        assert queue.warp_jumps >= 1

    def test_aq_empty_check_is_a_noop_at_the_same_cycle(self):
        """The rule that lets spinff park with an armed watchdog: once
        the AQ drains, the pending check fires as a pure no-op at its
        original absolute cycle — no flush, no timeout, no rearm."""
        queue, aq, watchdog, flushes = make(threshold=100)
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        deadline = watchdog.deadline
        aq.deallocate(entry)  # store_unlock performed; nothing locked
        drain(queue, finish_at=5000)
        assert not flushes
        assert watchdog.timeouts == 0
        assert not watchdog.armed
        # The no-op still consumed the entry at its deadline; a fresh
        # lock re-arms relative to the original activity timestamps.
        assert deadline == 100

    def test_still_locked_check_flushes_despite_warp(self):
        """A warped run must not skip a *live* deadline: lock held at
        the deadline => flush fires there, exactly as without warping."""
        queue, aq, watchdog, flushes = make(threshold=250)
        entry = aq.allocate(atomic(3))
        entry.lock(12, 0, 1)
        watchdog.reset()
        drain(queue, finish_at=9000)
        assert flushes and flushes[0][0] == 250


class TestParkPrimitives:
    """The event-kernel surface spinff's park/unpark path is built on."""

    def test_extract_ring_removes_only_matching_entries(self):
        queue = EventQueue()
        hits = []

        def a() -> None:
            hits.append(("a", queue.now))

        def b() -> None:
            hits.append(("b", queue.now))

        queue.post(5, a)
        queue.post(5, b)
        queue.post(9, a)
        extracted = queue.extract_ring(lambda cb, arg: cb is a)
        assert [(due, cb) for due, _order, cb, _arg in extracted] == [
            (5, a),
            (9, a),
        ]
        while queue.run_next():
            pass
        assert hits == [("b", 5)]

    def test_splice_ring_positions_against_live_entries(self):
        queue = EventQueue()
        hits = []

        def mk(tag):
            def cb() -> None:
                hits.append(tag)

            return cb

        queue.post(4, mk("x"))
        queue.post(4, mk("z"))
        # Replay an extracted entry *between* the live ones.
        queue.splice_ring(4, 1, mk("y"), None)
        while queue.run_next():
            pass
        assert hits == ["x", "y", "z"]

    @staticmethod
    def _posted_by_callback(queue: EventQueue) -> dict:
        return {
            cb: queue.posted_cycle(order)
            for _due, order, cb, _arg, _handle in queue.iter_ring()
        }

    def test_posting_cycle_index_covers_every_post_entry_point(self):
        queue = EventQueue()
        expected = {}

        def post_all() -> None:
            # Four long-lived entries, one per posting entry point.
            cbs = [lambda *_args, i=i: None for i in range(4)]
            queue.post(200, cbs[0])
            queue.post1(150, cbs[1], "arg")
            queue.schedule(100, cbs[2])
            queue.post_at(queue.now + 180, cbs[3])
            for cb in cbs:
                expected[cb] = queue.now

        post_all()
        queue.post(3, post_all)
        queue.post(4, lambda: None)
        # Drain warps 0 -> 3 and 4 -> 40 over the empty cycles.
        counter = [1]

        def at_40() -> None:
            post_all()
            counter[0] = 0

        queue.post(40, at_40)
        assert queue.drain(counter, 1000) == 0
        assert queue.now == 40
        assert queue.warp_jumps == 2
        assert self._posted_by_callback(queue) == expected
        assert sorted(set(expected.values())) == [0, 3, 40]

    def test_posting_cycle_index_is_pruned_to_the_ring_horizon(self):
        queue = EventQueue()
        late = []

        def tick() -> None:
            if queue.now == 590:
                late.append(lambda: None)
                queue.post(RING_CYCLES - 1, late[0])
            if queue.now < 3 * RING_CYCLES:
                queue.post(1, tick)

        queue.post(1, tick)
        queue.run_until(590 + RING_CYCLES - 2)
        # One record per clock advance, bounded by the horizon.
        assert len(queue._index_cycles) <= 2 * RING_CYCLES
        assert queue._index_cycles[0] > 590 - RING_CYCLES
        assert self._posted_by_callback(queue)[late[0]] == 590

    def test_spliced_entry_reports_its_live_twins_posting_cycle(self):
        queue = EventQueue()

        def parked() -> None:
            pass

        def live() -> None:
            pass

        queue.post(60, parked)
        queue.run_until(20)
        (extracted,) = queue.extract_ring(lambda cb, arg: cb is parked)
        queue.post(30, live)  # posted at 20, due 50
        queue.run_until(45)
        # Un-park at 45: the live twin would have been posted at 25.
        queue.splice_ring(50, 0, parked, None, 25)
        queue.splice_ring(50, 2, live, None)
        posted = [
            (cb, queue.posted_cycle(order))
            for _due, order, cb, _arg, _handle in queue.iter_ring()
        ]
        assert extracted[0] == 60
        assert posted == [(parked, 25), (live, 20), (live, 45)]
