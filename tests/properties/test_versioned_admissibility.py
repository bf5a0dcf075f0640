"""Property test: the versioned policy only ever commits TSO outcomes.

The versioned design replaces the decode-time fences with release
version chaining (acquires issue behind the previous release, plain
loads retire behind pending releases).  Its correctness argument is
containment: every reordering it permits, Free atomics also permits —
so each committed outcome must fall inside the forward-enumerated TSO
outcome set of its program, and each committed trace must be
explainable by the operational x86-TSO machine.

Two generators exercise it here:

- randomized *fuzz programs* from the diy-style generator, paired with
  seeded perturbation-knob draws (latencies, queue sizes, pads), run
  through the full differential pipeline (:func:`run_case`);
- random two-thread ISA programs (same strategy as the all-policy
  admissibility property), checked directly against the abstract
  machine, with spin fast-forward on and off (``REPRO_NO_SPINFF``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import DeterministicRng
from repro.consistency.fuzz import draw_knobs, run_case
from repro.consistency.generator import generate_tests
from repro.consistency.model import TsoChecker
from repro.core.policy import VERSIONED
from repro.system.simulator import run_workload
from repro.workloads.base import Workload
from tests.conftest import small_system_config
from tests.properties.test_spinff_side_effects import spinff_switch
from tests.properties.test_tso_admissibility import (
    LOCATIONS,
    build_program,
    thread_specs,
)


@given(seed=st.integers(0, 2**31 - 1), knob_salt=st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_fuzz_cases_commit_only_tso_outcomes(seed, knob_salt):
    """Outcome in the enumerated TSO set, trace admissible, no crash."""
    test = generate_tests(1, seed)[0]
    knobs = draw_knobs(DeterministicRng(seed).fork(knob_salt), test)
    record = run_case(test, VERSIONED, knobs)
    assert record.ok, (
        f"versioned violated the oracle on {test.name} (seed={seed}):\n  "
        + "\n  ".join(f"{v.kind}: {v.detail}" for v in record.violations)
    )
    assert record.outcome in test.allowed


@pytest.mark.parametrize("leg", ["fast", "nospinff"])
@given(spec0=thread_specs(), spec1=thread_specs(), skew=st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_isa_traces_admissible_on_both_legs(leg, spec0, spec1, skew):
    b1_prefix = [("alu", LOCATIONS[0])] * skew
    programs = [
        build_program(0, spec0),
        build_program(1, b1_prefix + spec1),
    ]
    workload = Workload("versioned_prop", programs)
    with spinff_switch(leg == "fast"):
        result = run_workload(
            workload,
            policy=VERSIONED,
            config=small_system_config(2, watchdog_cycles=400),
            trace=True,
        )
    assert result.traces is not None
    final = {addr: result.read_word(addr) for addr in LOCATIONS}
    outcome = TsoChecker().admissible(result.traces, final_memory=final)
    assert outcome.admissible, (
        f"non-TSO execution under versioned ({leg} leg):\n"
        f"  core0: {result.traces[0]}\n"
        f"  core1: {result.traces[1]}\n"
        f"  final: {final}"
    )
