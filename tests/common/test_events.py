"""Tests for the discrete-event kernel."""

import pytest

from repro.common.events import RING_CYCLES, EventQueue
from tests.conftest import run_all, run_until


class TestEventQueue:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.post(5, lambda: order.append("b"))
        queue.post(1, lambda: order.append("a"))
        queue.post(9, lambda: order.append("c"))
        run_all(queue)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        order = []
        for tag in "abc":
            queue.post(3, lambda t=tag: order.append(t))
        run_all(queue)
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        queue = EventQueue()
        seen = []
        queue.post(4, lambda: seen.append(queue.now))
        run_all(queue)
        assert seen == [4]
        assert queue.now == 4

    def test_zero_delay_runs_after_current(self):
        queue = EventQueue()
        order = []

        def outer():
            queue.post(0, lambda: order.append("inner"))
            order.append("outer")

        queue.post(1, outer)
        run_all(queue)
        assert order == ["outer", "inner"]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.post1(-1, lambda arg: None, "arg")

    def test_schedule_at_absolute(self):
        queue = EventQueue()
        seen = []
        run_until(queue, 2)
        queue.post_at(10, lambda: seen.append(queue.now))
        run_all(queue)
        assert seen == [10]

    def test_run_until_advances_clock(self):
        queue = EventQueue()
        run_until(queue, 42)
        assert queue.now == 42

    def test_events_scheduled_during_run(self):
        queue = EventQueue()
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                queue.post(1, lambda: chain(n + 1))

        queue.post(1, lambda: chain(0))
        run_all(queue)
        assert order == [0, 1, 2, 3]

    def test_len_counts_pending(self):
        queue = EventQueue()
        queue.post(1, lambda: None)
        queue.post(2, lambda: None)
        assert len(queue) == 2


class TestFastPath:
    """post/post1/post_at: the three ways to add an entry."""

    def test_post_runs_in_order(self):
        queue = EventQueue()
        order = []
        queue.post(5, lambda: order.append("b"))
        queue.post(1, lambda: order.append("a"))
        run_all(queue)
        assert order == ["a", "b"]

    def test_post_and_post1_share_tiebreak_counter(self):
        queue = EventQueue()
        order = []
        queue.post(3, lambda: order.append("posted-first"))
        queue.post1(3, order.append, "post1-second")
        queue.post(3, lambda: order.append("posted-third"))
        run_all(queue)
        assert order == ["posted-first", "post1-second", "posted-third"]

    def test_post_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.post(-1, lambda: None)

    def test_post_at_absolute(self):
        queue = EventQueue()
        seen = []
        queue.post(2, lambda: queue.post_at(10, lambda: seen.append(queue.now)))
        run_all(queue)
        assert seen == [10]


class TestDrain:
    """``drain``'s three return codes."""

    def test_returns_0_when_the_counter_reaches_zero(self):
        queue = EventQueue()
        counter = [2]
        fired = []

        def finish() -> None:
            fired.append(queue.now)
            counter[0] -= 1

        queue.post(3, finish)
        queue.post(7, finish)
        queue.post(9, lambda: fired.append("after"))
        assert queue.drain(counter, 100) == 0
        assert fired == [3, 7]
        assert queue.now == 7
        assert len(queue) == 1

    def test_returns_1_on_an_empty_queue(self):
        queue = EventQueue()
        assert queue.drain([1], 100) == 1
        queue.post(5, lambda: None)
        assert queue.drain([1], 100) == 1
        assert queue.now == 5
        assert len(queue) == 0

    def test_returns_2_at_the_first_entry_past_the_limit(self):
        queue = EventQueue()
        fired = []
        for delay, tag in (
            (1, "a"),
            (10, "b"),
            (10, "c"),
            (11, "d"),
            (RING_CYCLES + 10, "e"),
            (RING_CYCLES + 20, "f"),
        ):
            queue.post1(delay, fired.append, tag)
        queue.post(10, lambda: queue.post(0, lambda: fired.append("zero")))
        assert queue.drain([1], 10) == 2
        # Every entry due at the limit ran, including one posted there;
        # none past it did, and the clock stopped at the last one run.
        assert fired == ["a", "b", "c", "zero"]
        assert queue.now == 10
        assert len(queue) == 3
        # A later drain resumes in order, across the ring and the heap,
        # and leaves the clock at the last entry run, not at the limit.
        assert queue.drain([1], RING_CYCLES + 15) == 2
        assert fired[4:] == ["d", "e"]
        assert queue.now == RING_CYCLES + 10
        assert queue.drain([1], 10**6) == 1
        assert fired[6:] == ["f"]
