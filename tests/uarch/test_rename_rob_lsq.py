"""Tests for rename map, reorder buffer, and load/store queues."""

import pytest

from repro.isa.instructions import (
    Alu,
    AluOp,
    AtomicRMW,
    Load,
    MemoryOperand,
    Store,
)
from repro.uarch.dynins import DynInstr
from repro.uarch.lsq import LoadQueue, StoreQueue
from repro.uarch.rename import RenameMap
from repro.uarch.rob import ReorderBuffer


def alu(seq, dst=1):
    return DynInstr(seq, Alu(op=AluOp.ADD, dst=dst, src1=2, imm=1), seq)


def load(seq, word=None, forwarded=None):
    instr = DynInstr(seq, Load(dst=2, mem=MemoryOperand(1)), seq)
    if word is not None:
        instr.word = word
        instr.line = word // 8
        instr.addr_ready = True
    instr.forwarded_from = forwarded
    return instr


def store(seq, word=None, committed=False):
    instr = DynInstr(seq, Store(imm=0, mem=MemoryOperand(1)), seq)
    if word is not None:
        instr.word = word
        instr.addr_ready = True
    instr.committed = committed
    return instr


class TestRenameMap:
    def test_reads_committed_regfile_when_unclaimed(self):
        rename = RenameMap({3: 99})
        ready, value, producer = rename.read_or_producer(3)
        assert ready and value == 99 and producer is None

    def test_claim_then_read_pending(self):
        rename = RenameMap()
        producer = alu(1)
        rename.claim(1, producer)
        ready, _, found = rename.read_or_producer(1)
        assert not ready and found is producer

    def test_completed_producer_supplies_value(self):
        rename = RenameMap()
        producer = alu(1)
        rename.claim(1, producer)
        producer.completed = True
        producer.result = 42
        ready, value, _ = rename.read_or_producer(1)
        assert ready and value == 42

    def test_commit_writes_regfile_and_clears_map(self):
        rename = RenameMap()
        producer = alu(1)
        rename.claim(1, producer)
        rename.commit(1, producer, 7)
        ready, value, _ = rename.read_or_producer(1)
        assert ready and value == 7

    def test_commit_does_not_clear_younger_claim(self):
        rename = RenameMap()
        older, younger = alu(1), alu(2)
        rename.claim(1, older)
        rename.claim(1, younger)
        rename.commit(1, older, 7)
        _, _, producer = rename.read_or_producer(1)
        assert producer is younger

    def test_rollback_restores_chain(self):
        rename = RenameMap()
        a, b, c = alu(1), alu(2), alu(3)
        for instr in (a, b, c):
            rename.claim(1, instr)
        rename.rollback([c, b])  # youngest-first
        _, _, producer = rename.read_or_producer(1)
        assert producer is a

    def test_rollback_to_regfile(self):
        rename = RenameMap({1: 5})
        a = alu(1)
        rename.claim(1, a)
        rename.rollback([a])
        ready, value, _ = rename.read_or_producer(1)
        assert ready and value == 5


class TestReorderBuffer:
    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.dispatch(alu(1))
        rob.dispatch(alu(2))
        assert rob.full
        with pytest.raises(OverflowError):
            rob.dispatch(alu(3))

    def test_in_order_dispatch_enforced(self):
        rob = ReorderBuffer(4)
        rob.dispatch(alu(5))
        with pytest.raises(ValueError):
            rob.dispatch(alu(4))

    def test_commit_from_head(self):
        rob = ReorderBuffer(4)
        first, second = alu(1), alu(2)
        rob.dispatch(first)
        rob.dispatch(second)
        assert rob.commit_head() is first
        assert rob.head is second

    def test_squash_suffix_youngest_first(self):
        rob = ReorderBuffer(8)
        instrs = [alu(i) for i in range(5)]
        for instr in instrs:
            rob.dispatch(instr)
        squashed = rob.squash_from(2)
        assert [i.seq for i in squashed] == [4, 3, 2]
        assert len(rob) == 2

    def test_oldest_uncommitted(self):
        rob = ReorderBuffer(4)
        a, b = alu(1), alu(2)
        rob.dispatch(a)
        rob.dispatch(b)
        assert rob.oldest_uncommitted_is(a)
        assert not rob.oldest_uncommitted_is(b)


class TestLoadQueue:
    def test_ordering_violation_finds_oldest_memory_sourced(self):
        lq = LoadQueue(8)
        a = load(1, word=10)
        b = load(2, word=10)
        c = load(3, word=10, forwarded=1)  # forwarded: exempt
        for instr in (a, b, c):
            lq.insert(instr)
            instr.performed = True
        victim = lq.oldest_ordering_violation(10 // 8)
        assert victim is a

    def test_committed_loads_exempt(self):
        lq = LoadQueue(8)
        a = load(1, word=10)
        lq.insert(a)
        a.performed = True
        a.committed = True
        assert lq.oldest_ordering_violation(10 // 8) is None

    def test_atomics_exempt(self):
        lq = LoadQueue(8)
        rmw = DynInstr(1, AtomicRMW(dst=1, imm=1, mem=MemoryOperand(1)), 0)
        rmw.performed = True
        rmw.line = 1
        rmw.word = 8
        lq.insert(rmw)
        assert lq.oldest_ordering_violation(1) is None

    def test_capacity_and_release(self):
        lq = LoadQueue(1)
        a = load(1)
        lq.insert(a)
        assert lq.full
        lq.release(a)
        assert len(lq) == 0


class TestStoreQueue:
    def test_sb_head_is_oldest_committed_unperformed(self):
        sq = StoreQueue(8)
        a = store(1, committed=True)
        b = store(2, committed=True)
        sq.insert(a)
        sq.insert(b)
        assert sq.sb_head is a
        a.store_performed = True
        sq.release(a)
        assert sq.sb_head is b

    def test_sb_head_none_when_uncommitted(self):
        sq = StoreQueue(8)
        sq.insert(store(1))
        assert sq.sb_head is None

    def test_sb_empty_below(self):
        sq = StoreQueue(8)
        sq.insert(store(1, committed=True))
        sq.insert(store(5))
        assert not sq.sb_empty_below(3)
        assert sq.sb_empty_below(1)  # nothing older than seq 1

    def test_youngest_matching_store(self):
        sq = StoreQueue(8)
        old = store(1, word=10)
        mid = store(2, word=10)
        other = store(3, word=99)
        for instr in (old, mid, other):
            sq.insert(instr)
        assert sq.youngest_matching_store(10, before_seq=5) is mid
        assert sq.youngest_matching_store(10, before_seq=2) is old
        assert sq.youngest_matching_store(42, before_seq=5) is None

    def test_squash_from(self):
        sq = StoreQueue(8)
        keep = store(1, committed=True)
        drop = store(2)
        sq.insert(keep)
        sq.insert(drop)
        squashed = sq.squash_from(2)
        assert squashed == [drop]
        assert list(sq) == [keep]
