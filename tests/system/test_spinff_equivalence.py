"""A/B equivalence of the spin fast-forward engine (repro.uarch.spinff).

Paper-scale runs (32 threads, barrier-heavy kernels) spend most of
their simulated time in spin-wait loops; the fast-forward engine parks
spinning cores and warps over the dead time.  These tests pin the
contract that makes that legal: the observable result — the canonical
``ResultSummary`` JSON — is byte-identical with the engine on, with
only it off (``REPRO_NO_SPINFF=1``), and with every fast path off
(``REPRO_NO_FASTPATH=1``), at the full 32-thread machine width, with
observability attached and detached.

The ``fastforward`` diagnostics (parks / spin_cycles_skipped /
time_warp_jumps) are deliberately *outside* the summary: they describe
how the run was simulated, not what it computed.  The guard tests here
assert they are non-zero on the fast leg, so the identity tests cannot
silently degrade into comparing two runs that both never parked.
"""

from __future__ import annotations

import pytest

from repro.common.config import icelake_config
from repro.core.policy import FREE_ATOMICS_FWD
from repro.system.simulator import run_workload
from repro.workloads.generator import WorkloadScale, generate_workload

PAPER_WIDTH = 32

#: env knob per leg: all fast paths on / only spinff off / everything off.
LEGS = {
    "fast": (),
    "nospinff": ("REPRO_NO_SPINFF",),
    "nofastpath": ("REPRO_NO_FASTPATH",),
}


def _run(workload, config, monkeypatch, leg: str, observability=None):
    for var in ("REPRO_NO_FASTPATH", "REPRO_NO_SPINFF"):
        monkeypatch.delenv(var, raising=False)
    for var in LEGS[leg]:
        monkeypatch.setenv(var, "1")
    return run_workload(
        workload,
        policy=FREE_ATOMICS_FWD,
        config=config,
        observability=observability,
    )


def paper_width_workload(bench_name: str, instructions: int, seed: int = 0):
    scale = WorkloadScale(
        num_threads=PAPER_WIDTH,
        instructions_per_thread=instructions,
        seed=seed,
    )
    return generate_workload(bench_name, scale)


def test_paper_width_canneal_identical_across_legs(monkeypatch):
    """32-thread canneal: summary byte-identity across all three legs,
    with the fast leg proven to actually park (non-zero diagnostics)."""
    workload = paper_width_workload("canneal", 150)
    config = icelake_config(num_cores=PAPER_WIDTH)
    fast = _run(workload, config, monkeypatch, "fast")
    assert fast.fastforward["parks"] > 0, "fast leg never parked: dead test"
    assert fast.fastforward["spin_cycles_skipped"] > 0
    nospinff = _run(workload, config, monkeypatch, "nospinff")
    assert nospinff.fastforward["parks"] == 0
    reference = _run(workload, config, monkeypatch, "nofastpath")
    assert reference.fastforward["parks"] == 0
    fast_json = fast.summary().canonical_json()
    assert fast_json == nospinff.summary().canonical_json()
    assert fast_json == reference.summary().canonical_json()


@pytest.mark.parametrize("bench_name", ["AS", "watersp"])
def test_barrier_kernels_identical(bench_name, monkeypatch):
    """The barrier-period kernels — the workloads whose spin time made
    the paper scale intractable before the engine.  16 threads, not 32:
    the reference leg's spin time grows roughly quadratically with
    thread count (~100 host-seconds per kernel at 32), and the 32-wide
    legs are already covered by the canneal tests above; 16 threads
    still parks these kernels dozens of times per run."""
    workload = generate_workload(
        bench_name,
        WorkloadScale(num_threads=16, instructions_per_thread=50, seed=0),
    )
    config = icelake_config(num_cores=16)
    fast = _run(workload, config, monkeypatch, "fast")
    assert fast.fastforward["parks"] > 0
    reference = _run(workload, config, monkeypatch, "nofastpath")
    assert (
        fast.summary().canonical_json()
        == reference.summary().canonical_json()
    )


def test_paper_width_as_identical_engine_off(monkeypatch):
    """32-thread AS, the point whose park count moves most with the
    detector: the engine on against only it off.  50 instructions is
    the generator's floor; the run length comes from 32-way lock
    contention, so the engine-off leg still simulates ~0.8 M spin
    cycles (about 90 s on a 2-core host)."""
    workload = paper_width_workload("AS", 50)
    config = icelake_config(num_cores=PAPER_WIDTH)
    fast = _run(workload, config, monkeypatch, "fast")
    assert fast.fastforward["parks"] > 0, "fast leg never parked: dead test"
    nospinff = _run(workload, config, monkeypatch, "nospinff")
    assert nospinff.fastforward["parks"] == 0
    assert (
        fast.summary().canonical_json()
        == nospinff.summary().canonical_json()
    )


def test_paper_width_obs_attached_identical(monkeypatch):
    """Obs-attached A/B at 32 threads: parking must not eat events.

    With observability attached the engine still parks.  A parked span
    emits only its ``spinff/*`` park/unpark events; its skipped laps'
    ``pipeline/*`` counts are re-synthesized on wake.  So against the
    never-parking reference leg, the summary (apart from the health
    report), the per-stream counts (apart from ``spinff/*``) and the
    retained stream of every other category must match exactly, with a
    ring large enough that neither leg drops an event.
    """
    from repro.obs.attach import Observability
    from repro.obs.config import ObsConfig

    workload = paper_width_workload("canneal", 100)
    config = icelake_config(num_cores=PAPER_WIDTH)
    runs = {}
    for leg in ("fast", "nofastpath"):
        obs = Observability(ObsConfig(capacity=1 << 20))
        result = _run(workload, config, monkeypatch, leg, observability=obs)
        assert obs.bus.dropped == 0, f"{leg}: ring too small to compare"
        summary = result.summary().to_json_dict()
        health = summary["meta"].pop("health")
        runs[leg] = (
            [
                (e.cycle, e.cat, e.kind, e.src, e.seq, e.dur, e.info)
                for e in obs.bus.ring
                if e.cat not in ("pipeline", "spinff")
            ],
            {
                k: v
                for k, v in obs.bus.counts.items()
                if not k.startswith("spinff/")
            },
            summary,
            health,
        )
    fast, reference = runs["fast"], runs["nofastpath"]
    assert fast[3]["fastforward"]["parks"] > 0, "observed leg never parked: dead test"
    assert reference[3]["fastforward"]["parks"] == 0
    assert fast[0] == reference[0], "structured event streams diverge"
    assert fast[1] == reference[1], "per-stream event counts diverge"
    assert fast[2] == reference[2], "summaries diverge"


def test_time_warp_fires_at_paper_width(monkeypatch):
    """The global time-warp must engage once spinning cores park —
    otherwise parked cores still cost one empty-bucket scan per cycle
    and the paper-scale speedup quietly evaporates."""
    workload = paper_width_workload("canneal", 150)
    config = icelake_config(num_cores=PAPER_WIDTH)
    fast = _run(workload, config, monkeypatch, "fast")
    assert fast.fastforward["time_warp_jumps"] > 0
