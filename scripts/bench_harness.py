#!/usr/bin/env python3
"""Record simulator/harness throughput to BENCH_harness.json.

Runs a fixed, deterministic sweep of simulation points (3 benchmarks x
all 4 policies at a reduced scale) with the disk cache disabled, so the
numbers measure the simulator itself, and a tight event-kernel loop for
the kernel's raw event rate.  Metrics:

- ``sim_cycles_per_sec`` — simulated cycles advanced per host second;
- ``sim_points_per_sec`` — full simulation points per host second;
- ``kernel_events_per_sec`` — EventQueue post+drain throughput;
- ``core_events_per_sec`` — full-core event rate on the LSQ-contention
  microbenchmark (benchmarks/bench_core_throughput.py).

Intended for CI (see .github/workflows/ci.yml): the JSON lands in the
repo root so successive PRs leave a performance trajectory.

The sweep runs ``--reps`` times (default 3) and records the fastest
wall time — the measurement is CPU-bound, so the fastest rep is the
least-perturbed one.  Each rep re-simulates every point (the result
memo is cleared between reps); the shared workload/config/decode
caches stay warm, matching the steady state of a long sweep.

``--compare`` runs the same sweep but diffs the fresh numbers against
the committed BENCH_harness.json instead of overwriting it, printing a
per-metric percentage delta.  ``--fail-threshold PCT`` (implies
``--compare``) exits non-zero when any metric in ``GATED_METRICS``
(kernel events, core events, and the full-sweep ``sim_cycles_per_sec``)
regressed by more than PCT percent; CI uses this as the
perf-regression gate.

Usage::

    python scripts/bench_harness.py [--jobs N] [--scale quick|default|paper]
                                    [--cached] [--reps N]
    python scripts/bench_harness.py --compare [--fail-threshold 25]

Recording runs also time one dedicated paper-scale point per benchmark
(32 threads, reduced instruction count, the ``free+fwd`` policy),
recorded under ``paper_points`` with the spin fast-forward diagnostics;
the canneal point doubles as the flat ``paper_point_seconds`` metric,
and the same point with ``Observability(ObsConfig())`` attached is
``observed_point_seconds``.  ``--fail-threshold`` gates both
lower-is-better.  ``--scale paper`` runs the whole sweep
at the 32-thread machine width — all three benchmarks, now that the
spin fast-forward engine parks barrier-spinning cores (the preset used
to be canneal-only; see ``PAPER_BENCHMARKS``).  ``--benchmarks A,B``
restricts the sweep (and the per-benchmark paper points) to a subset.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for the benchmarks/ package

OUTPUT = ROOT / "BENCH_harness.json"

#: Metrics gated by --fail-threshold.  The kernel/core rates are
#: pure-CPU microbenchmarks; ``sim_cycles_per_sec`` covers the full
#: simulator sweep (best-of-``--reps`` to shed host-load noise — the
#: committed baseline and the fresh run use the same sweep scale, so
#: the ratio is meaningful even though the absolute value is not).
GATED_METRICS = (
    "kernel_events_per_sec",
    "core_events_per_sec",
    "sim_cycles_per_sec",
)

#: Gated metrics where smaller is better (wall seconds rather than
#: rates).  ``paper_point_seconds`` guards the spin fast-forward win:
#: losing it would push the canneal paper point back toward the
#: pre-parking baseline.  ``observed_point_seconds`` is the same point observed: it guards
#: observation keeping the batched core legs and spin fast-forward on.
GATED_SECONDS_METRICS = ("paper_point_seconds", "observed_point_seconds")

BENCHMARKS = ("AS", "watersp", "canneal")

#: The paper's machine is 32 cores; ``--scale paper`` sweeps at that
#: width and every recording run times one dedicated 32-core point.
PAPER_THREADS = 32

#: The 32-thread preset sweeps the full benchmark set.  It used to be
#: canneal-only: the barrier-heavy kernels (watersp, AS) spin-wait
#: while all 32 threads arrive, which grew their simulated work
#: roughly quadratically with thread count (~2 minutes per point on
#: one host core).  The spin fast-forward engine (repro.uarch.spinff)
#: now parks spinning cores and warps over the dead time, so all
#: three benchmarks complete in seconds at paper scale.
PAPER_BENCHMARKS = ("AS", "watersp", "canneal")

#: (num_threads, instructions_per_thread) per ``--scale`` preset.
SCALES = {
    "quick": (2, 600),
    "default": (4, 1000),
    "paper": (PAPER_THREADS, 300),
}


def kernel_events_per_sec(num_events: int = 200_000, repeats: int = 5) -> float:
    """Raw EventQueue throughput: post ``num_events`` callbacks, then
    ``drain`` them all (the loop ``System.run`` uses).

    Best-of-``repeats``: the measurement is pure CPU-bound Python, so
    the fastest run is the least-perturbed one; single runs on shared
    hosts vary by tens of percent from scheduler noise alone.
    """
    from repro.common.events import EventQueue

    best = 0.0
    for _ in range(repeats):
        queue = EventQueue()
        sink = [0]

        def tick() -> None:
            sink[0] += 1

        start = time.perf_counter()
        for i in range(num_events):
            queue.post(i % 7, tick)
        queue.drain([1], sys.maxsize)
        elapsed = time.perf_counter() - start
        assert sink[0] == num_events
        best = max(best, num_events / elapsed)
    return best


def paper_point(
    benchmark: str = "canneal", reps: int = 2, observed: bool = False
) -> tuple[float, dict]:
    """Wall seconds + fast-forward diagnostics for one paper-scale
    point: 32 threads, reduced instruction count, the paper's headline
    policy (``free+fwd``); with ``observed``, each rep runs with a fresh
    ``Observability(ObsConfig())`` attached.

    Recorded alongside the sweep metrics so the trajectory tracks the
    configuration the paper's figures actually need, not just the small
    sweep; best-of-``reps`` like the sweep itself.  Runs the simulator
    directly (not through the analysis prefetch layer) so the
    ``SimulationResult.fastforward`` diagnostics — parks,
    spin_cycles_skipped, time_warp_jumps — ride along with the timing;
    the rep loop sits inside ``batch_gc_tuning``, the simulator's GC
    regime, which every ``System.run`` drain holds anyway; the wrapper
    only extends it over the work between the reps.
    """
    from repro.analysis.engine import batch_gc_tuning
    from repro.analysis.runner import (
        ExperimentScale,
        bench_system_config,
        bench_workload,
    )
    from repro.core.policy import FREE_ATOMICS_FWD
    from repro.obs import ObsConfig, Observability
    from repro.system.simulator import run_workload

    scale = ExperimentScale(
        num_threads=PAPER_THREADS, instructions_per_thread=300
    )
    workload = bench_workload(benchmark, scale)
    config = bench_system_config(scale)
    best = float("inf")
    diagnostics: dict = {}
    with batch_gc_tuning():
        for _ in range(max(1, reps)):
            observability = Observability(ObsConfig()) if observed else None
            start = time.perf_counter()
            result = run_workload(
                workload, FREE_ATOMICS_FWD, config, observability=observability
            )
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
                diagnostics = dict(result.fastforward or {})
    return best, diagnostics


def host_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    Containerized CI runners sometimes launch the harness with a
    degenerate one-CPU affinity mask even though the host has more —
    the recorded ``host_cpus: 1`` made past baselines look like
    single-core runs.  Treat a <=1-wide mask as unreliable and fall
    back to ``os.cpu_count()``.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        affinity = 0
    if affinity > 1:
        return affinity
    return os.cpu_count() or affinity or 1


def compare_metrics(
    fresh: dict, committed: dict, fail_threshold: float | None
) -> int:
    """Print per-metric deltas vs the committed baseline.

    Returns a process exit code: non-zero when ``fail_threshold`` is set
    and any metric in :data:`GATED_METRICS` regressed by more than that
    percentage.
    """
    print(f"{'metric':<24} {'baseline':>14} {'fresh':>14} {'delta':>9}")
    for key in sorted(set(committed) | set(fresh)):
        old = committed.get(key)
        new = fresh.get(key)
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        delta = f"{(new - old) / old * 100.0:+8.1f}%" if old else "      n/a"
        print(f"{key:<24} {old:>14} {new:>14} {delta}")
    if fail_threshold is None:
        return 0
    code = 0
    for metric in GATED_METRICS + GATED_SECONDS_METRICS:
        old = committed.get(metric)
        new = fresh.get(metric)
        if not old or new is None:
            print(f"[gate] skip {metric}: missing baseline or fresh value")
            continue
        if metric in GATED_SECONDS_METRICS:
            # Wall seconds: bigger is worse.
            regression = (new - old) / old * 100.0
        else:
            regression = (old - new) / old * 100.0
        if regression > fail_threshold:
            print(
                f"[gate] FAIL: {metric} regressed "
                f"{regression:.1f}% (> {fail_threshold:.0f}% allowed)"
            )
            code = 1
        else:
            print(
                f"[gate] OK: {metric} "
                f"{'regression' if regression > 0 else 'improvement'} "
                f"{abs(regression):.1f}% (threshold {fail_threshold:.0f}%)"
            )
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (0 = all cores)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="alias for --scale quick"
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="sweep scale preset: quick (CI smoke), default, or paper "
        f"({PAPER_THREADS}-thread machine at reduced instruction count)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of benchmarks to sweep "
        f"(default: all of {', '.join(BENCHMARKS)})",
    )
    parser.add_argument(
        "--cached",
        action="store_true",
        help="allow disk-cache hits (measures warm-cache latency instead)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        metavar="N",
        help="sweep repetitions; the fastest wall time is recorded "
        "(the result memo is cleared between reps so every rep "
        "re-simulates, but decode/workload/config caches stay warm)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="diff a fresh run against the committed BENCH_harness.json "
        "instead of overwriting it",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if kernel_events_per_sec regressed by more "
        "than PCT%% vs the committed baseline (implies --compare)",
    )
    args = parser.parse_args()
    if args.fail_threshold is not None:
        args.compare = True

    if not args.cached:
        os.environ["REPRO_CACHE"] = "off"

    from benchmarks.bench_core_throughput import core_events_per_sec
    from repro.analysis.engine import (
        disk_hits,
        effective_jobs,
        prefetch,
        resolve_jobs,
    )
    from repro.analysis.runner import ExperimentScale, clear_cache
    from repro.core.policy import ALL_POLICIES

    if args.quick:
        args.scale = "quick"
    num_threads, instructions = SCALES[args.scale]
    scale = ExperimentScale(
        num_threads=num_threads, instructions_per_thread=instructions
    )
    benchmarks = PAPER_BENCHMARKS if args.scale == "paper" else BENCHMARKS
    if args.benchmarks:
        requested = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )
        unknown = sorted(set(requested) - set(BENCHMARKS))
        if unknown:
            parser.error(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"choose from {', '.join(BENCHMARKS)}"
            )
        benchmarks = requested
    points = [
        (name, policy.name, scale, "icelake")
        for name in benchmarks
        for policy in ALL_POLICIES
    ]
    jobs = resolve_jobs(args.jobs)

    # Best-of-N sweep: each rep honestly re-simulates every point
    # (clear_cache drops the result memo) while the shared decode/
    # workload/config caches stay warm — the same steady state a long
    # sweep reaches after its first few points.  With --cached, hits
    # are read in this process and only misses reach the workers, so
    # the fastest rep's simulated count sizes effective_jobs.
    reps = max(1, args.reps)
    wall = float("inf")
    resolved = {}
    effective = hit_count = 0
    for rep in range(reps):
        if rep:
            clear_cache()
        start = time.perf_counter()
        hits = disk_hits(points)
        simulated = prefetch(points, jobs=jobs)
        elapsed = time.perf_counter() - start
        resolved = {**hits, **simulated}
        if elapsed < wall:
            wall = elapsed
            effective = effective_jobs(jobs, len(simulated))
            hit_count = len(hits)
    total_cycles = sum(summary.cycles for summary in resolved.values())

    record = {
        "schema": 1,
        "date": datetime.date.today().isoformat(),
        "config": {
            "benchmarks": list(benchmarks),
            "policies": [p.name for p in ALL_POLICIES],
            "scale": args.scale,
            "num_threads": scale.num_threads,
            "instructions_per_thread": scale.instructions_per_thread,
            "paper_point_threads": PAPER_THREADS,
            "jobs": jobs,
            "effective_jobs": effective,
            "disk_hits": hit_count,
            "sweep_reps": reps,
            "host_cpus": host_cpus(),
            "cached": bool(args.cached),
        },
        "metrics": {
            "wall_seconds": round(wall, 3),
            "sim_points": len(points),
            "sim_points_per_sec": round(len(points) / wall, 3),
            "total_sim_cycles": total_cycles,
            "sim_cycles_per_sec": round(total_cycles / wall, 1),
            "kernel_events_per_sec": round(kernel_events_per_sec(), 1),
            "core_events_per_sec": round(core_events_per_sec(), 1),
        },
    }
    if args.compare:
        # The gate only tracks the canneal point (lower is better; see
        # GATED_SECONDS_METRICS); the full per-benchmark paper points
        # ride along on recording runs only.
        seconds, _ = paper_point("canneal")
        record["metrics"]["paper_point_seconds"] = round(seconds, 3)
        seconds, _ = paper_point("canneal", observed=True)
        record["metrics"]["observed_point_seconds"] = round(seconds, 3)
    else:
        # Dedicated 32-core points (the paper's machine width), one per
        # benchmark, each with the fast-forward diagnostics that prove
        # the mechanism did the work (parks / spin_cycles_skipped /
        # time_warp_jumps — not host-speed noise).
        paper_points = {}
        for name in benchmarks:
            if name not in PAPER_BENCHMARKS:
                continue
            seconds, diagnostics = paper_point(name)
            paper_points[name] = {"seconds": round(seconds, 3), **diagnostics}
        if paper_points:
            record["paper_points"] = paper_points
        canneal = paper_points.get("canneal")
        if canneal:
            # Flat copies of the headline point for the metric
            # trajectory (and the --compare gate).
            record["metrics"]["paper_point_seconds"] = canneal["seconds"]
            for key in ("spin_cycles_skipped", "time_warp_jumps"):
                if key in canneal:
                    record["metrics"][key] = canneal[key]
            seconds, _ = paper_point("canneal", observed=True)
            record["metrics"]["observed_point_seconds"] = round(seconds, 3)
    if args.compare:
        if not OUTPUT.exists():
            print(f"[no committed baseline at {OUTPUT}; nothing to compare]")
            return 0
        committed = json.loads(OUTPUT.read_text())
        return compare_metrics(
            record["metrics"], committed.get("metrics", {}), args.fail_threshold
        )
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["metrics"], indent=2))
    print(f"[written {OUTPUT}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
