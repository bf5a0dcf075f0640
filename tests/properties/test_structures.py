"""Property tests on core data structures and invariants."""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.common.events import RING_CYCLES, EventQueue
from repro.common.stats import Histogram
from repro.isa.instructions import Alu, AluOp
from repro.isa.registers import truncate
from repro.isa.semantics import evaluate_alu, to_signed
from repro.mem.cache import CacheArray
from repro.uarch.bandwidth import BandwidthLimiter
from tests.conftest import run_all

values64 = st.integers(0, (1 << 64) - 1)


class TestSemanticsProperties:
    @given(a=values64, b=values64)
    @settings(max_examples=200)
    def test_results_stay_in_64_bits(self, a, b):
        for op in (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.SHL, AluOp.XOR):
            instr = Alu(op=op, dst=1, src1=2, src2=3)
            assert 0 <= evaluate_alu(instr, a, b) < (1 << 64)

    @given(a=values64, b=values64)
    def test_add_commutes(self, a, b):
        instr = Alu(op=AluOp.ADD, dst=1, src1=2, src2=3)
        assert evaluate_alu(instr, a, b) == evaluate_alu(instr, b, a)

    @given(a=values64, b=values64)
    def test_xor_involution(self, a, b):
        instr = Alu(op=AluOp.XOR, dst=1, src1=2, src2=3)
        assert evaluate_alu(instr, evaluate_alu(instr, a, b), b) == truncate(a)

    @given(a=values64)
    def test_signed_round_trip(self, a):
        assert truncate(to_signed(a)) == truncate(a)

    @given(a=values64, b=values64)
    def test_cmp_lt_total_order(self, a, b):
        instr = Alu(op=AluOp.CMP_LT, dst=1, src1=2, src2=3)
        lt_ab = evaluate_alu(instr, a, b)
        lt_ba = evaluate_alu(instr, b, a)
        if truncate(a) == truncate(b):
            assert lt_ab == lt_ba == 0
        else:
            assert lt_ab + lt_ba == 1


#: Delays across three ring horizons, with the ring/heap boundary drawn
#: often enough that ring and heap entries meet on one cycle.
_delays = st.one_of(
    st.integers(0, 3 * RING_CYCLES),
    st.sampled_from([0, 1, RING_CYCLES - 1, RING_CYCLES, RING_CYCLES + 1]),
)
_kinds = st.sampled_from(["post", "post1", "post_at"])
#: A post is (kind, delay, children): its callback makes the child posts.
_posts = st.recursive(
    st.tuples(_kinds, _delays, st.just(())),
    lambda inner: st.tuples(
        _kinds, _delays, st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=30,
)


class TestEventQueueProperties:
    @given(plan=st.lists(_posts, min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_events_fire_in_nondecreasing_time(self, plan):
        """The ring/heap merge runs entries in exact ``(due, order)``
        order: the order of a plain heap over every post."""
        queue = EventQueue()
        fired: list[tuple[int, int]] = []
        posts = itertools.count()

        def fire(tag, children) -> None:
            fired.append((queue.now, tag))
            for child in children:
                submit(child)

        def submit(spec) -> None:
            kind, delay, children = spec
            tag = next(posts)
            if kind == "post":
                queue.post(delay, lambda: fire(tag, children))
            elif kind == "post1":
                queue.post1(delay, lambda arg: fire(*arg), (tag, children))
            else:
                queue.post_at(queue.now + delay, lambda: fire(tag, children))

        for spec in plan:
            submit(spec)
        run_all(queue)

        reference: list[tuple[int, int]] = []
        heap: list = []
        orders = itertools.count()

        def push(spec, now: int) -> None:
            _kind, delay, children = spec
            heapq.heappush(heap, (now + delay, next(orders), children))

        for spec in plan:
            push(spec, 0)
        while heap:
            due, order, children = heapq.heappop(heap)
            reference.append((due, order))
            for child in children:
                push(child, due)

        times = [cycle for cycle, _tag in fired]
        assert times == sorted(times)
        assert len(fired) == next(posts)
        assert fired == reference


class TestBandwidthProperties:
    @given(
        width=st.integers(1, 8),
        requests=st.lists(st.integers(0, 5), min_size=1, max_size=60),
    )
    @settings(max_examples=100)
    def test_never_exceeds_width_per_cycle(self, width, requests):
        bw = BandwidthLimiter(width)
        now = 0
        granted: dict[int, int] = {}
        for step in requests:
            now += step
            cycle = bw.grant(now)
            assert cycle >= now
            granted[cycle] = granted.get(cycle, 0) + 1
        assert all(count <= width for count in granted.values())


class TestCacheProperties:
    @given(
        lines=st.lists(st.integers(0, 200), min_size=1, max_size=120),
        ways=st.integers(1, 8),
        sets_log2=st.integers(0, 4),
    )
    @settings(max_examples=100)
    def test_capacity_and_presence_invariants(self, lines, ways, sets_log2):
        sets = 1 << sets_log2
        cache = CacheArray(CacheConfig("P", sets * ways * 64, ways, 0, 1))
        for line in lines:
            cache.fill(line)
            assert line in cache  # just-filled is resident
        assert len(cache) <= sets * ways
        # Every resident line is found where the set math says it is.
        for set_index in range(sets):
            for line in cache.lines_in_set(set_index):
                assert line % sets == set_index

    @given(lines=st.lists(st.integers(0, 40), min_size=2, max_size=40))
    @settings(max_examples=50)
    def test_excluded_way_never_evicted(self, lines):
        ways = 2
        cache = CacheArray(CacheConfig("P", ways * 64, ways, 0, 1))
        protected = lines[0]
        cache.fill(protected)
        protected_way = cache.way_of(protected)
        for line in lines[1:]:
            cache.fill(line, excluded_ways={protected_way})
            assert protected in cache


class TestHistogramProperties:
    @given(samples=st.lists(st.integers(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_mean_consistency(self, samples):
        hist = Histogram()
        for sample in samples:
            hist.add(sample)
        assert hist.count == len(samples)
        assert hist.total == sum(samples)
        assert abs(hist.mean - sum(samples) / len(samples)) < 1e-9
        assert hist.min == min(samples)
        assert hist.max == max(samples)

    @given(
        a=st.lists(st.integers(0, 50), max_size=50),
        b=st.lists(st.integers(0, 50), max_size=50),
    )
    def test_merge_is_concatenation(self, a, b):
        merged, reference = Histogram(), Histogram()
        left, right = Histogram(), Histogram()
        for sample in a:
            left.add(sample)
        for sample in b:
            right.add(sample)
        left.merge(right)
        for sample in a + b:
            reference.add(sample)
        assert left.count == reference.count
        assert left.total == reference.total
