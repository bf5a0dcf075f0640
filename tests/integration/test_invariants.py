"""Coherence/locking invariant audits over live contended runs."""

import pytest

from repro.core.policy import ALL_POLICIES, FREE_ATOMICS_FWD
from repro.mem.invariants import assert_coherent, verify_system
from repro.system.simulator import System
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import counter_workload, run_all, small_system_config


def run_with_audits(system: System, every: int = 40) -> None:
    """Drive the system manually, auditing invariants every ``every``
    cycles and at the end."""
    remaining = [len(system.cores)]

    def core_finished() -> None:
        remaining[0] -= 1

    for core in system.cores:
        core.on_finished = core_finished
        core.start()
    limit = 0
    outcome = 2
    while outcome == 2:
        limit += every
        outcome = system.queue.drain(remaining, limit)
        if outcome == 1:
            pytest.fail("queue drained before completion")
        assert_coherent(system)


class TestInvariantsDuringContention:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_counter_contention(self, policy):
        workload = counter_workload(3, 25)
        system = System(
            workload, policy=policy, config=small_system_config(3)
        )
        run_with_audits(system)

    def test_lock_pair_workload(self):
        workload = generate_workload(
            "AS", WorkloadScale(num_threads=3, instructions_per_thread=600)
        )
        system = System(
            workload,
            policy=FREE_ATOMICS_FWD,
            config=small_system_config(3, watchdog_cycles=400),
        )
        run_with_audits(system)

    def test_strict_directory_agreement_after_quiesce(self):
        workload = counter_workload(2, 15)
        system = System(
            workload, policy=FREE_ATOMICS_FWD, config=small_system_config(2)
        )
        system.run()
        # Fully drain in-flight coherence traffic, then check strictly.
        run_all(system.queue)
        assert verify_system(system, strict_directory=True) == []


class TestInvariantCheckerDetectsBreakage:
    def test_detects_double_writer(self):
        from repro.mem.coherence import MESIState

        workload = counter_workload(2, 5)
        system = System(workload, config=small_system_config(2))
        system.run()
        # Sabotage: force a second writable copy.
        line = 0x10000 // 64
        system.cores[0].hierarchy._state[line] = MESIState.MODIFIED
        system.cores[1].hierarchy._state[line] = MESIState.MODIFIED
        violations = verify_system(system)
        assert any("multiple writable" in v for v in violations)

    def test_detects_phantom_lock(self):
        workload = counter_workload(1, 3)
        system = System(workload, config=small_system_config(1))
        result = system.run()
        assert result.committed_atomics == 3
        core = system.cores[0]
        from repro.isa.instructions import AtomicRMW, MemoryOperand
        from repro.uarch.dynins import DynInstr

        ghost = DynInstr(9999, AtomicRMW(dst=1, imm=1, mem=MemoryOperand(1)), 0)
        entry = core.aq.allocate(ghost)
        entry.lock(line=0xDEAD, set_index=0, way=0)
        violations = verify_system(system)
        assert any("locked line" in v for v in violations)
