"""Unit tests for individual invariant checkers on sabotaged systems."""

from repro.mem.coherence import MESIState
from repro.mem.invariants import _check_directory_tables, verify_system
from repro.system.simulator import System
from tests.conftest import counter_workload, run_all, small_system_config


def fresh_system(threads=2):
    system = System(
        counter_workload(threads, 5), config=small_system_config(threads)
    )
    system.run()
    run_all(system.queue)
    return system


class TestHealthy:
    def test_quiesced_system_is_clean(self):
        assert verify_system(fresh_system(), strict_directory=True) == []


class TestSabotage:
    def test_inclusion_violation_detected(self):
        system = fresh_system()
        hierarchy = system.cores[0].hierarchy
        line = 54_321
        # Fabricate an L1-resident, L2-absent line (state kept valid via
        # a directory-known fiction is unnecessary: inclusion is checked
        # against the L2 regardless).
        hierarchy._state[line] = MESIState.EXCLUSIVE
        hierarchy._l1.fill(line)
        violations = verify_system(system)
        assert any("L1 but not L2" in v for v in violations)

    def test_resident_but_invalid_detected(self):
        system = fresh_system()
        hierarchy = system.cores[0].hierarchy
        line = 123456
        hierarchy._l2.fill(line)
        hierarchy._l1.fill(line)
        violations = verify_system(system)
        assert any("INVALID" in v for v in violations)

    def test_directory_unknown_line_detected(self):
        system = fresh_system()
        hierarchy = system.cores[0].hierarchy
        hierarchy._state[999_999] = MESIState.SHARED
        violations = verify_system(system)
        assert any("unknown to the directory" in v for v in violations)

    def test_queue_order_violation_detected(self):
        system = fresh_system()
        core = system.cores[0]
        from repro.isa.instructions import Load, MemoryOperand
        from repro.uarch.dynins import DynInstr

        late = DynInstr(500, Load(dst=1, mem=MemoryOperand(1)), 0)
        early = DynInstr(100, Load(dst=1, mem=MemoryOperand(1)), 0)
        core.lq._entries.append(late)
        core.lq._entries.append(early)
        violations = verify_system(system)
        assert any("LQ out of order" in v for v in violations)

    def test_writer_reader_coexistence_detected(self):
        system = fresh_system()
        line = 777_777
        system.cores[0].hierarchy._state[line] = MESIState.MODIFIED
        system.cores[1].hierarchy._state[line] = MESIState.SHARED
        violations = verify_system(system)
        assert any("coexists" in v for v in violations)


class TestStrictDirectory:
    """The strict forward check covers lines with in-flight transactions.

    The old implementation exempted any line whose directory entry had a
    pending transaction, which made the strict path vacuous exactly
    where drift hides (under contention a hot line almost always has a
    transaction open).  These tests fabricate drifted states and require
    the strict check to flag them, pending or not.
    """

    def cached_line_of(self, system):
        for core in system.cores:
            for line in core.hierarchy._state:
                entry = system.directory.entry(line)
                if entry is not None:
                    return core.core_id, line, entry
        raise AssertionError("no cached line anywhere after the run")

    def test_unattributed_holder_flagged_even_with_pending_txn(self):
        from repro.mem.directory import Transaction

        system = fresh_system()
        core_id, line, entry = self.cached_line_of(system)
        entry.sharers &= ~(1 << core_id)
        if entry.owner == core_id:
            entry.owner = -1
        entry.pending = Transaction(
            txn_id=999, kind="GetS", line=line, requester=1 - core_id
        )
        violations = verify_system(system, strict_directory=True)
        assert any(
            "directory lists holders" in v and "(pending GetS)" in v
            for v in violations
        )
        # Non-strict mode only checks directory *awareness*, not exact
        # holder sets — the fabricated drift is invisible to it.
        assert not any("lists holders" in v for v in verify_system(system))

    def test_wrong_owner_for_writable_line_flagged(self):
        system = fresh_system()
        for core in system.cores:
            hierarchy = core.hierarchy
            writable = [
                line
                for line, state in hierarchy._state.items()
                if state.writable
            ]
            if not writable:
                continue
            entry = system.directory.entry(writable[0])
            entry.owner = 1 - core.core_id
            violations = verify_system(system, strict_directory=True)
            assert any("writable but" in v for v in violations)
            return
        raise AssertionError("no writable line after a counter run")


class TestQuiescedChecks:
    def test_phantom_holder_detected(self):
        system = fresh_system()
        caching, other = None, None
        for core in system.cores:
            if core.hierarchy._state:
                caching = core
            else:
                other = core
        assert caching is not None and other is not None
        line = next(iter(caching.hierarchy._state))
        entry = system.directory.entry(line)
        entry.sharers |= 1 << other.core_id  # phantom: caches nothing there
        assert other.hierarchy.state_of(line).name == "INVALID"
        quiesced = verify_system(system, quiesced=True)
        assert any("caches nothing" in v for v in quiesced)
        # The reverse check is unsound mid-run (PutLine may be in
        # flight), so the default audit must not include it.
        assert not any("caches nothing" in v for v in verify_system(system))

    def test_pending_transaction_at_quiesce_detected(self):
        from repro.mem.directory import Transaction

        system = fresh_system()
        directory = system.directory
        directory._pending_by_id[999] = Transaction(
            txn_id=999, kind="GetX", line=0x123440, requester=0
        )
        quiesced = verify_system(system, quiesced=True)
        assert any("still pending" in v for v in quiesced)

    def test_stranded_deferred_request_detected(self):
        system = fresh_system()
        hierarchy = system.cores[0].hierarchy
        line = 0x777740
        hierarchy._deferred[line] = [object()]
        assert line not in system.cores[0].aq.locked_lines()
        quiesced = verify_system(system, quiesced=True)
        assert any("stranded" in v and "deferred" in v for v in quiesced)


class TestDirectoryTables:
    """Each check of the line-map/set-list audit catches its drift."""

    def tracked(self, system):
        directory = system.directory
        line, entry = next(iter(directory.entries()))
        return directory, line, entry

    def test_line_missing_from_its_set_list_detected(self):
        system = fresh_system()
        directory, line, entry = self.tracked(system)
        directory._sets[directory._set_of(line)].remove(entry)
        violations = verify_system(system)
        assert any("missing from its set's residency list" in v for v in violations)

    def test_set_list_entry_not_in_line_map_detected(self):
        from repro.mem.directory import DirectoryEntry

        system = fresh_system()
        directory, line, entry = self.tracked(system)
        # A second record for a tracked line: the line map owns the other.
        directory._sets[directory._set_of(line)].append(DirectoryEntry(line))
        violations = verify_system(system)
        assert any("the line map does not own" in v for v in violations)

    def test_set_over_ways_detected(self):
        from repro.mem.directory import DirectoryEntry

        system = fresh_system()
        directory, line, entry = self.tracked(system)
        set_index = directory._set_of(line)
        resident = directory._sets[set_index]
        # Lines of the same set, tracked in both structures so only the
        # capacity check can object.
        step = directory._num_sets
        extra = directory._ways + 1 - len(resident)
        for k in range(1, extra + 1):
            ghost = DirectoryEntry(line + k * step)
            directory._entries[ghost.line] = ghost
            resident.append(ghost)
        violations = verify_system(system)
        assert any(
            f"set {set_index} holds {directory._ways + 1} entries" in v
            for v in violations
        )

    def test_owner_beyond_core_count_detected(self):
        system = fresh_system()
        _, line, entry = self.tracked(system)
        entry.owner = len(system.cores)
        violations = verify_system(system)
        assert any(f"line {line:#x} owner" in v for v in violations)

    def test_sharer_bit_beyond_core_count_detected(self):
        system = fresh_system()
        _, line, entry = self.tracked(system)
        entry.sharers |= 1 << len(system.cores)
        violations = verify_system(system)
        assert any(f"line {line:#x} sharer mask" in v for v in violations)

    def test_healthy_tables_pass(self):
        system = fresh_system()
        assert system.directory._entries
        assert _check_directory_tables(system) == []


class TestFastpathIndexAudit:
    def test_stale_lq_bucket_entry_detected(self):
        from repro.isa.instructions import Load, MemoryOperand
        from repro.uarch.dynins import DynInstr, F_LQ_INDEXED

        system = fresh_system()
        core = system.cores[0]
        ghost = DynInstr(77, Load(dst=1, mem=MemoryOperand(1)), 0)
        ghost.word = 0x40
        ghost.line = 0x40
        ghost.addr_ready = True
        ghost.flags |= F_LQ_INDEXED
        core.lq._by_word.setdefault(0x40, []).append(ghost)
        violations = verify_system(system)
        assert any("stale" in v for v in violations)

    def test_empty_retained_bucket_detected(self):
        system = fresh_system()
        system.cores[0].sq._by_word[0x99] = []
        violations = verify_system(system)
        assert any("empty bucket retained" in v for v in violations)
