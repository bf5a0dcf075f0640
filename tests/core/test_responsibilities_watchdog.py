"""Tests for forwarding responsibilities and the deadlock watchdog."""

from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.core.atomic_queue import AtomicQueue
from repro.core.forwarding import (
    LoadSource,
    chain_depth_of,
    decide_load_source,
)
from repro.core.policy import BASELINE, FREE_ATOMICS, FREE_ATOMICS_FWD
from repro.core.responsibilities import (
    grant_forwarding_responsibility,
    revoke_forwarding_responsibility,
)
from repro.core.watchdog import DeadlockWatchdog
from repro.isa.instructions import AtomicRMW, Load, MemoryOperand, Store
from repro.uarch.dynins import DynInstr
from repro.uarch.lsq import StoreQueue
from repro.uarch.probe import CoreProbe
from tests.conftest import run_all, run_until


def atomic(seq, word=None, data_ready=False):
    instr = DynInstr(seq, AtomicRMW(dst=1, imm=1, mem=MemoryOperand(2)), seq)
    if word is not None:
        instr.word = word
        instr.addr_ready = True
    instr.store_data_ready = data_ready
    if data_ready:
        instr.store_value = 1
    return instr


def plain_store(seq, word=None, data_ready=False):
    instr = DynInstr(seq, Store(imm=0, mem=MemoryOperand(2)), seq)
    if word is not None:
        instr.word = word
        instr.addr_ready = True
    instr.store_data_ready = data_ready
    if data_ready:
        instr.store_value = 0
    return instr


def load(seq, word):
    instr = DynInstr(seq, Load(dst=1, mem=MemoryOperand(2)), seq)
    instr.word = word
    instr.addr_ready = True
    return instr


class TestResponsibilities:
    def make_entry(self, seq=5):
        aq = AtomicQueue(4, StatsRegistry(), on_fully_unlocked=lambda line: None)
        return aq.allocate(atomic(seq))

    def test_grant_from_store_unlock_sets_do_not_unlock(self):
        entry = self.make_entry()
        source = atomic(3)
        grant_forwarding_responsibility(entry, source)
        assert source.do_not_unlock
        assert entry.source_store is source
        assert entry.chain_depth == 1

    def test_grant_from_ordinary_store_sets_lock_on_access(self):
        entry = self.make_entry()
        source = plain_store(3)
        grant_forwarding_responsibility(entry, source)
        assert entry in source.lock_on_behalf
        assert not source.do_not_unlock

    def test_chain_depth_accumulates(self):
        aq = AtomicQueue(4, StatsRegistry(), on_fully_unlocked=lambda line: None)
        first = atomic(1)
        entry1 = aq.allocate(first)
        entry1.chain_depth = 3
        entry2 = aq.allocate(atomic(2))
        grant_forwarding_responsibility(entry2, first)
        assert entry2.chain_depth == 4

    def test_revoke_before_store_performed(self):
        entry = self.make_entry()
        source = atomic(3)
        grant_forwarding_responsibility(entry, source)
        revoke_forwarding_responsibility(entry)
        assert not source.do_not_unlock
        assert entry.source_store is None

    def test_revoke_after_store_performed_is_noop(self):
        entry = self.make_entry()
        source = atomic(3)
        grant_forwarding_responsibility(entry, source)
        source.store_performed = True
        revoke_forwarding_responsibility(entry)
        assert source.do_not_unlock  # lock already transferred via broadcast

    def test_revoke_ordinary_store(self):
        entry = self.make_entry()
        source = plain_store(3)
        grant_forwarding_responsibility(entry, source)
        revoke_forwarding_responsibility(entry)
        assert source.lock_on_behalf == []


class TestForwardingDecisions:
    def setup_method(self):
        self.sq = StoreQueue(16)

    def test_no_match_goes_to_cache(self):
        decision = decide_load_source(load(9, word=5), self.sq, FREE_ATOMICS_FWD, 32)
        assert decision.action is LoadSource.CACHE

    def test_regular_load_forwards_from_ready_store(self):
        store = plain_store(1, word=5, data_ready=True)
        self.sq.insert(store)
        decision = decide_load_source(load(9, word=5), self.sq, FREE_ATOMICS_FWD, 32)
        assert decision.action is LoadSource.FORWARD
        assert decision.store is store

    def test_regular_load_waits_for_data(self):
        self.sq.insert(plain_store(1, word=5, data_ready=False))
        decision = decide_load_source(load(9, word=5), self.sq, FREE_ATOMICS_FWD, 32)
        assert decision.action is LoadSource.WAIT_DATA

    def test_load_lock_forwards_only_with_fwd_policy(self):
        self.sq.insert(atomic(1, word=5, data_ready=True))
        lock = atomic(9, word=5)
        assert (
            decide_load_source(lock, self.sq, FREE_ATOMICS, 32).action
            is LoadSource.WAIT_PERFORM
        )
        assert (
            decide_load_source(lock, self.sq, FREE_ATOMICS_FWD, 32).action
            is LoadSource.FORWARD
        )

    def test_chain_limit_breaks_forwarding(self):
        source = atomic(1, word=5, data_ready=True)
        entry_holder = AtomicQueue(4, StatsRegistry(), lambda line: None)
        entry = entry_holder.allocate(source)
        entry.chain_depth = 32
        self.sq.insert(source)
        decision = decide_load_source(atomic(9, word=5), self.sq, FREE_ATOMICS_FWD, 32)
        assert decision.action is LoadSource.WAIT_PERFORM
        assert chain_depth_of(source) == 32

    def test_fenced_load_vs_store_unlock_waits(self):
        self.sq.insert(atomic(1, word=5, data_ready=True))
        decision = decide_load_source(load(9, word=5), self.sq, BASELINE, 32)
        assert decision.action is LoadSource.WAIT_PERFORM

    def test_youngest_matching_store_wins(self):
        older = plain_store(1, word=5, data_ready=True)
        newer = plain_store(2, word=5, data_ready=True)
        self.sq.insert(older)
        self.sq.insert(newer)
        decision = decide_load_source(load(9, word=5), self.sq, FREE_ATOMICS_FWD, 32)
        assert decision.store is newer


class TestWatchdog:
    def make(self, threshold=100, enabled=True):
        queue = EventQueue()
        stats = StatsRegistry()
        aq = AtomicQueue(4, stats, on_fully_unlocked=lambda line: None)
        flushes = []

        def flush(entry):
            # Mirror the core: the flush squashes from the oldest locked
            # atomic, lifting its lock (otherwise the watchdog re-arms).
            flushes.append(entry)
            aq.squash_from(entry.seq)

        watchdog = DeadlockWatchdog(queue, aq, threshold, enabled, flush, stats)
        return queue, aq, watchdog, flushes

    def test_fires_after_threshold_with_lock_held(self):
        queue, aq, watchdog, flushes = self.make(threshold=100)
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        run_until(queue, 99)
        assert not flushes
        run_all(queue)
        assert flushes == [entry]
        assert watchdog.timeouts == 1

    def test_does_not_fire_without_locks(self):
        queue, aq, watchdog, flushes = self.make()
        watchdog.reset()
        run_all(queue)
        assert not flushes

    def test_reset_postpones_firing(self):
        queue, aq, watchdog, flushes = self.make(threshold=100)
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        run_until(queue, 60)
        watchdog.reset()  # another load_lock performed
        run_until(queue, 130)  # original deadline passed, renewed one not
        assert not flushes
        run_all(queue)
        assert flushes  # fires at the renewed deadline

    def test_disabled_watchdog_never_fires(self):
        queue, aq, watchdog, flushes = self.make(enabled=False)
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        run_all(queue)
        assert not flushes

    def test_commit_resolves_before_firing(self):
        queue, aq, watchdog, flushes = self.make(threshold=100)
        instr = atomic(1)
        entry = aq.allocate(instr)
        entry.lock(10, 0, 0)
        watchdog.reset()
        run_until(queue, 50)
        aq.deallocate(entry)  # store_unlock performed
        run_all(queue)
        assert not flushes


class TestWatchdogAccounting:
    """Regression tests: ``timeouts`` is instance-local state.

    The property used to read the ``watchdog_timeouts`` counter back out
    of the stats registry, so any two watchdogs sharing a registry
    aliased each other's counts, and a fresh watchdog built over a
    reused registry started "pre-fired".
    """

    def make_pair(self, shared_stats=None):
        queue = EventQueue()
        stats = shared_stats or StatsRegistry()
        pair = []
        for _ in range(2):
            aq = AtomicQueue(4, stats, on_fully_unlocked=lambda line: None)
            flush = lambda entry, aq=aq: aq.squash_from(entry.seq)
            pair.append((aq, DeadlockWatchdog(queue, aq, 100, True, flush, stats)))
        return queue, stats, pair

    def fire(self, queue, aq, watchdog):
        entry = aq.allocate(atomic(1))
        entry.lock(10, 0, 0)
        watchdog.reset()
        run_all(queue)
        return entry

    def test_shared_registry_does_not_alias_counts(self):
        queue, stats, [(aq0, wd0), (aq1, wd1)] = self.make_pair()
        self.fire(queue, aq0, wd0)
        assert wd0.timeouts == 1
        assert wd1.timeouts == 0  # used to read 1 through the registry
        assert stats.get("watchdog_timeouts") == 1  # summary counter intact

    def test_fresh_instance_over_reused_registry_starts_at_zero(self):
        queue, stats, [(aq0, wd0), _] = self.make_pair()
        self.fire(queue, aq0, wd0)
        assert stats.get("watchdog_timeouts") == 1
        _, _, [(aq2, wd2), _] = self.make_pair(shared_stats=stats)
        assert wd2.timeouts == 0

    def test_fire_probe_observes_each_fire(self):
        queue, stats, [(aq0, wd0), _] = self.make_pair()
        seen = []
        wd0.probe = CoreProbe()
        wd0.probe.listen(fire=seen.append)
        entry = self.fire(queue, aq0, wd0)
        assert seen == [entry]
        assert wd0.timeouts == 1
