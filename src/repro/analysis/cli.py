"""Command-line interface: regenerate any paper table or figure.

Examples::

    python -m repro.analysis figure14
    python -m repro.analysis table2 --benchmarks AS TPCC canneal
    python -m repro.analysis figure1 --threads 4 --instrs 1500
    python -m repro.analysis all --json-dir results/ --jobs 4
    python -m repro.analysis all --jobs 0        # 0 = all cores
    python -m repro.analysis --clear-cache       # drop the disk cache
    python -m repro.analysis --trace-out trace.json   # Chrome trace of a litmus run

Simulation points are resolved through the in-process memo and the
persistent disk cache (see ``repro.common.cache``); ``--jobs N`` (or
``REPRO_BENCH_JOBS``) fans uncached points across N worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
from typing import Callable, Optional, Sequence

from repro.analysis.calibration import calibration_rows
from repro.analysis.engine import (
    effective_jobs,
    resolve_jobs,
    run_experiments_prefetch,
)
from repro.analysis.figures import (
    figure1_rows,
    figure12_rows,
    figure13_rows,
    figure14_rows,
    figure15_rows,
)
from repro.analysis.report import format_table
from repro.analysis.runner import (
    ExperimentScale,
    bench_system_config,
    clear_cache,
)
from repro.analysis.tables import table1_rows, table2_rows

EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "calibration": (
        "Calibration: per-atomic latency vs Schweizer et al. (PACT'15)",
        calibration_rows,
    ),
    "figure1": ("Figure 1: avg cycles per fenced atomic RMW", figure1_rows),
    "figure12": ("Figure 12: atomics per kilo-instruction", figure12_rows),
    "figure13": ("Figure 13: locality ratio of atomics", figure13_rows),
    "figure14": ("Figure 14: normalized execution time", figure14_rows),
    "figure15": ("Figure 15: normalized energy", figure15_rows),
    "table2": ("Table 2: Free atomics characterization", table2_rows),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=sorted(EXPERIMENTS) + ["table1", "headline", "all"],
        help="which experiment to regenerate",
    )
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--instrs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="benchmark subset (default: all 26)",
    )
    parser.add_argument(
        "--json-dir",
        type=pathlib.Path,
        default=None,
        help="also write rows as JSON into this directory",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for uncached points "
        "(default: REPRO_BENCH_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete the persistent result cache before (or instead of) running",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent disk cache for this invocation",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run one canonical simulation point under cProfile and "
        "print the top-25 cumulative hotspots (no experiment needed)",
    )
    parser.add_argument(
        "--profile-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="with --profile: also dump the raw pstats data to PATH, "
        "so hotspots can be re-examined (pstats.Stats(PATH), snakeviz, "
        "gprof2dot, ...) without re-running the sweep",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="run one litmus program with full observability attached "
        "and write the event stream as Chrome trace_event JSON to PATH "
        "(open in Perfetto or chrome://tracing; no experiment needed)",
    )
    parser.add_argument(
        "--trace-litmus",
        default="atomic_increment",
        metavar="NAME",
        help="with --trace-out: which litmus program to trace "
        "(default: atomic_increment, the contended fetch_add test)",
    )
    return parser


#: Number of hotspot rows ``--profile`` prints.
PROFILE_TOP = 25


def run_profile(
    scale: ExperimentScale, out: Optional[pathlib.Path] = None
) -> None:
    """Profile a canonical point and print the hottest call sites.

    Uses the highest-traffic configuration (the paper's ``free+fwd``
    policy on the atomic-heavy ``AS`` microbenchmark) with the caches
    bypassed, so the profile reflects the simulator hot path rather
    than cache lookups.  When ``out`` is given the raw pstats data is
    dumped there as well, so future hot-path hunts can slice the same
    run differently (``pstats.Stats(str(out))``) without re-running it.
    """
    import cProfile
    import pstats

    from repro.analysis.runner import run_benchmark
    from repro.core.policy import policy_by_name

    os.environ["REPRO_CACHE"] = "off"
    print(
        f"[profiling benchmark=AS policy=free+fwd "
        f"threads={scale.num_threads} instrs={scale.instructions_per_thread}]"
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_benchmark("AS", policy_by_name("free+fwd"), scale)
    profiler.disable()
    stats = pstats.Stats(profiler)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(out))
        print(f"[raw pstats written to {out}]")
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP)


#: Online invariant-audit cadence for traced runs (cycles).
TRACE_AUDIT_INTERVAL = 64


def run_trace(
    out: pathlib.Path, litmus_name: str, scale: ExperimentScale
) -> int:
    """Trace one litmus program and write a Chrome trace_event file.

    The run uses the paper's free+fwd policy with every observability
    category enabled and online invariant auditing sampling every
    :data:`TRACE_AUDIT_INTERVAL` cycles; the emitted JSON is validated
    against the exporter's schema before it is written.  Returns a
    process exit code (non-zero when validation or auditing failed).
    """
    from repro.common.config import icelake_config
    from repro.consistency.litmus import LITMUS_TESTS
    from repro.obs import ObsConfig, Observability, validate_trace
    from repro.system.simulator import System

    test = LITMUS_TESTS.get(litmus_name)
    if test is None:
        print(
            f"unknown litmus test {litmus_name!r}; "
            f"available: {', '.join(sorted(LITMUS_TESTS))}"
        )
        return 2
    workload = test.build((0,) * test.num_threads)
    config = icelake_config(num_cores=test.num_threads)
    obs = Observability(
        ObsConfig(audit_interval_cycles=TRACE_AUDIT_INTERVAL)
    )
    print(
        f"[tracing litmus={test.name} threads={test.num_threads} "
        f"policy=free+fwd audit-every={TRACE_AUDIT_INTERVAL} cycles]"
    )
    result = System(workload, config=config, observability=obs).run()
    health = result.health or {}
    payload = obs.chrome_payload()
    errors = validate_trace(payload)
    for error in errors:
        print(f"[trace-schema] {error}")
    path = obs.write_chrome_trace(out)
    audits = health.get("audits", {})
    violations = list(audits.get("violations", [])) + list(
        audits.get("final_violations", [])
    )
    for violation in violations:
        print(f"[audit] {violation}")
    print(
        f"[{result.cycles} cycles, {obs.bus.total()} events "
        f"({obs.bus.dropped} dropped), {audits.get('runs', 0)} online "
        f"audits, {len(violations)} violation(s)]"
    )
    print(f"[chrome trace written to {path}]")
    return 1 if (errors or violations) else 0


def run_experiment(
    name: str,
    scale: ExperimentScale,
    benchmarks: Optional[Sequence[str]],
    json_dir: Optional[pathlib.Path],
) -> None:
    if name == "table1":
        rows = table1_rows(bench_system_config(scale))
        title = "Table 1: system configuration"
    elif name == "headline":
        from repro.analysis.summary import headline_metrics

        metrics = headline_metrics(scale, benchmarks=benchmarks)
        rows = metrics.as_rows()
        title = "Headline: paper abstract vs measured (free+fwd savings, %)"
    else:
        title, compute = EXPERIMENTS[name]
        rows = compute(scale, benchmarks=benchmarks)
    print()
    print(format_table(rows, title))
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        path = json_dir / f"{name}.json"
        path.write_text(json.dumps(rows, indent=2, default=str))
        print(f"[saved {path}]")


def build_scale(args: argparse.Namespace) -> ExperimentScale:
    """REPRO_BENCH_* env defaults, overridden by explicit CLI flags."""
    scale = ExperimentScale.from_env()
    overrides = {
        "num_threads": args.threads,
        "instructions_per_thread": args.instrs,
        "seed": args.seed,
    }
    return dataclasses.replace(
        scale, **{k: v for k, v in overrides.items() if v is not None}
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "off"
    if args.clear_cache:
        removed = clear_cache(disk=True)
        print(f"[cleared {removed} cached result(s)]")
        if args.experiment is None and not args.profile:
            return 0
    if args.profile:
        run_profile(build_scale(args), out=args.profile_out)
        if args.experiment is None and args.trace_out is None:
            return 0
    elif args.profile_out is not None:
        parser.error("--profile-out requires --profile")
    if args.trace_out is not None:
        code = run_trace(args.trace_out, args.trace_litmus, build_scale(args))
        if args.experiment is None or code:
            return code
    if args.experiment is None:
        parser.error(
            "an experiment is required unless --clear-cache, --profile "
            "or --trace-out is given"
        )
    scale = build_scale(args)
    names = (
        ["table1", *sorted(EXPERIMENTS), "headline"]
        if args.experiment == "all"
        else [args.experiment]
    )
    jobs = resolve_jobs(args.jobs)
    if jobs > 1:
        simulated, hits = run_experiments_prefetch(
            names, scale, benchmarks=args.benchmarks, jobs=jobs
        )
        if simulated or hits:
            print(
                f"[simulated {simulated} point(s) with "
                f"{effective_jobs(jobs, simulated)} worker(s), "
                f"{hits} disk-cache hit(s)]"
            )
    for name in names:
        run_experiment(name, scale, args.benchmarks, args.json_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
