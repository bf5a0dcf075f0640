"""Tests for the discrete-event kernel."""

import pytest

from repro.common.events import EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5, lambda: order.append("b"))
        queue.schedule(1, lambda: order.append("a"))
        queue.schedule(9, lambda: order.append("c"))
        while queue.run_next():
            pass
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        order = []
        for tag in "abc":
            queue.schedule(3, lambda t=tag: order.append(t))
        while queue.run_next():
            pass
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        queue = EventQueue()
        seen = []
        queue.schedule(4, lambda: seen.append(queue.now))
        queue.run_next()
        assert seen == [4]
        assert queue.now == 4

    def test_zero_delay_runs_after_current(self):
        queue = EventQueue()
        order = []

        def outer():
            queue.schedule(0, lambda: order.append("inner"))
            order.append("outer")

        queue.schedule(1, outer)
        while queue.run_next():
            pass
        assert order == ["outer", "inner"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1, lambda: fired.append(1))
        event.cancel()
        assert not queue.run_next() or not fired
        assert fired == []

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        queue = EventQueue()
        seen = []
        queue.schedule(2, lambda: queue.schedule_at(10, lambda: seen.append(queue.now)))
        while queue.run_next():
            pass
        assert seen == [10]

    def test_run_until_advances_clock(self):
        queue = EventQueue()
        queue.run_until(42)
        assert queue.now == 42

    def test_events_scheduled_during_run(self):
        queue = EventQueue()
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                queue.schedule(1, lambda: chain(n + 1))

        queue.schedule(1, lambda: chain(0))
        while queue.run_next():
            pass
        assert order == [0, 1, 2, 3]

    def test_len_counts_pending(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        assert len(queue) == 2


class TestFastPath:
    """post/post_at: the no-handle fast path used by the simulator."""

    def test_post_runs_in_order(self):
        queue = EventQueue()
        order = []
        queue.post(5, lambda: order.append("b"))
        queue.post(1, lambda: order.append("a"))
        while queue.run_next():
            pass
        assert order == ["a", "b"]

    def test_post_and_schedule_share_tiebreak_counter(self):
        queue = EventQueue()
        order = []
        queue.post(3, lambda: order.append("posted-first"))
        queue.schedule(3, lambda: order.append("scheduled-second"))
        queue.post(3, lambda: order.append("posted-third"))
        while queue.run_next():
            pass
        assert order == ["posted-first", "scheduled-second", "posted-third"]

    def test_post_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.post(-1, lambda: None)

    def test_post_at_absolute(self):
        queue = EventQueue()
        seen = []
        queue.post(2, lambda: queue.post_at(10, lambda: seen.append(queue.now)))
        while queue.run_next():
            pass
        assert seen == [10]

    def test_cancelled_schedule_between_posts_skipped(self):
        queue = EventQueue()
        order = []
        queue.post(1, lambda: order.append("a"))
        event = queue.schedule(1, lambda: order.append("cancelled"))
        queue.post(1, lambda: order.append("b"))
        event.cancel()
        while queue.run_next():
            pass
        assert order == ["a", "b"]


class TestRunCycle:
    def test_drains_one_cycle_batch(self):
        queue = EventQueue()
        order = []
        queue.post(2, lambda: order.append("x"))
        queue.post(2, lambda: order.append("y"))
        queue.post(5, lambda: order.append("later"))
        assert queue.run_cycle() == 2
        assert order == ["x", "y"]
        assert queue.now == 2

    def test_includes_zero_delay_events_added_during_batch(self):
        queue = EventQueue()
        order = []

        def outer():
            order.append("outer")
            queue.post(0, lambda: order.append("inner"))

        queue.post(3, outer)
        assert queue.run_cycle() == 3
        assert order == ["outer", "inner"]

    def test_empty_queue_returns_none(self):
        queue = EventQueue()
        assert queue.run_cycle() is None

    def test_matches_run_next_ordering(self):
        def build():
            queue = EventQueue()
            order = []
            for tag in "abc":
                queue.post(1, lambda t=tag: order.append(t))
            queue.post(2, lambda: order.append("d"))
            return queue, order

        q1, o1 = build()
        while q1.run_next():
            pass
        q2, o2 = build()
        while q2.run_cycle() is not None:
            pass
        assert o1 == o2
