"""Property: the spin fast-forward engine only parks truly dead spins.

Parking a loop means skipping its laps wholesale, so a loop with a
visible side effect — a store, an atomic, anything that changes memory
each iteration — must never be parked.  The detector guarantees this
structurally: the prefilter and signature reject any ROB holding a
non-{ALU, branch, load} instruction class and any core with a non-empty
SQ/AQ (see ``repro.uarch.spinff``).  These properties hold it to that
with randomized hand-built spin loops, run with the engine on and off:

- a spin loop that performs a store/atomic each lap never parks, and
- whatever the detector decides, the final memory and the canonical
  summary are byte-identical to the ``REPRO_NO_SPINFF=1`` reference.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.common.config import icelake_config
from repro.core.policy import FREE_ATOMICS_FWD
from repro.isa.builder import ProgramBuilder
from repro.system.simulator import run_workload
from repro.workloads.base import Workload

FLAG = 0x8000  # release flag, own line
SIDE = 0x8040  # side-effect target, own line
DONE = 0x8080  # spinner's exit marker, own line

SIDE_EFFECTS = ("none", "store", "fetch_add", "exchange")


@contextmanager
def spinff_switch(spinff: bool):
    """Run the block with the engine on or off (``REPRO_NO_SPINFF``);
    an env flip, not monkeypatch, so it also works under ``@given``."""
    saved = os.environ.pop("REPRO_NO_SPINFF", None)
    if not spinff:
        os.environ["REPRO_NO_SPINFF"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NO_SPINFF", None)
        if saved is not None:
            os.environ["REPRO_NO_SPINFF"] = saved


def spinner_program(side_effect: str, filler: int):
    """Spin on FLAG; optionally dirty SIDE every lap; record exit."""
    b = ProgramBuilder("spinner")
    b.li(1, FLAG)
    b.li(2, SIDE)
    spin = b.fresh_label("spin")
    b.label(spin)
    with b.spin_region():
        b.pause()
        if side_effect == "store":
            b.store(imm=1, base=2)
        elif side_effect == "fetch_add":
            b.fetch_add(3, base=2, imm=1)
        elif side_effect == "exchange":
            b.exchange(3, base=2, imm=7)
        for _ in range(filler):
            b.addi(4, 4, 1)
        b.load(5, base=1)
        b.branch_eq(5, 0, spin)
    b.li(6, DONE)
    b.store(src=4, base=6)
    return b.build()


def releaser_program(delay: int):
    """Busy-loop ``delay`` iterations, then set FLAG."""
    b = ProgramBuilder("releaser")
    b.li(1, FLAG)
    b.li(2, delay)
    loop = b.fresh_label("delay")
    b.label(loop)
    b.addi(2, 2, -1)
    b.branch_ne(2, 0, loop)
    b.store(imm=1, base=1)
    return b.build()


def spin_workload(side_effect: str, delay: int, filler: int) -> Workload:
    return Workload(
        f"spin-{side_effect}",
        [spinner_program(side_effect, filler), releaser_program(delay)],
    )


def _observe(workload, spinff: bool):
    with spinff_switch(spinff):
        result = run_workload(
            workload,
            policy=FREE_ATOMICS_FWD,
            config=icelake_config(num_cores=2),
        )
    return (
        result.fastforward["parks"],
        result.read_word(SIDE),
        result.read_word(DONE),
        result.summary().canonical_json(),
    )


@settings(max_examples=12, deadline=None)
@given(
    side_effect=st.sampled_from(SIDE_EFFECTS),
    delay=st.integers(min_value=60, max_value=400),
    filler=st.integers(min_value=0, max_value=2),
)
def test_side_effect_spins_never_park_and_stay_identical(
    side_effect, delay, filler
):
    workload = spin_workload(side_effect, delay, filler)
    fast = _observe(workload, spinff=True)
    reference = _observe(workload, spinff=False)
    assert reference[0] == 0  # reference leg cannot park by construction
    if side_effect != "none":
        assert fast[0] == 0, (
            f"parked a spin loop with a visible {side_effect} side effect"
        )
    # Identical final memory and byte-identical summary either way.
    assert fast[1:] == reference[1:]


def test_clean_spin_actually_parks():
    """Guard against the property trivially passing because the
    detector never parks anything: the side-effect-free variant of the
    exact same loop must park, skip cycles, and still match the
    reference byte for byte."""
    workload = spin_workload("none", 500, 0)
    fast = _observe(workload, spinff=True)
    reference = _observe(workload, spinff=False)
    assert fast[0] > 0, "clean spin never parked: detector dead?"
    assert fast[1:] == reference[1:]
