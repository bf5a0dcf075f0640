"""Parallel experiment engine: fan simulation points across processes.

Every paper figure/table decomposes into independent, deterministic
(benchmark, policy, scale, preset) simulation points — the event queue
ties-breaks by insertion order, so a point's result is identical no
matter which process runs it.  The engine exploits that: it enumerates
the points an experiment needs, reads the ones already in the persistent
disk cache in the calling process, and fans only the remaining misses
across a ``ProcessPoolExecutor``.  The parent reads, the pool simulates:
a warm sweep starts no worker.  Every resolved
:class:`~repro.system.summary.ResultSummary` lands in the in-process
memo; the workers also write their summaries to the disk cache.  The
figure/table row code then runs unchanged — every ``run_benchmark``
call is a memo hit.

Worker count resolution (first match wins):

1. an explicit ``jobs`` argument / ``--jobs N`` CLI flag;
2. the ``REPRO_BENCH_JOBS`` environment variable;
3. serial (1).

``0`` (or any value < 1) means "all available cores".
"""

from __future__ import annotations

import dataclasses
import gc
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis import runner as _runner
from repro.analysis.runner import ExperimentScale, run_benchmark
from repro.common.errors import ConfigError, PartialSweepError
from repro.core.policy import (
    ALL_POLICIES,
    BASELINE,
    FREE_ATOMICS_FWD,
    VERSIONED,
    policy_by_name,
)
from repro.system.summary import ResultSummary
from repro.workloads.profiles import ATOMIC_INTENSIVE, BENCHMARK_ORDER

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_BENCH_JOBS"

#: One simulation point: (benchmark, policy name, scale, core preset).
Point = tuple[str, str, ExperimentScale, str]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count from the argument, ``REPRO_BENCH_JOBS``, or 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV)
        if raw is None or raw == "":
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs < 1:
        try:
            return len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            return os.cpu_count() or 1
    return jobs


def effective_jobs(jobs: Optional[int], num_simulated: int) -> int:
    """The worker count :func:`prefetch` used to simulate ``num_simulated``.

    Mirrors prefetch's sizing, which only the disk misses reach: none
    for no simulated point (every point was a hit), serial for one,
    otherwise capped at the simulated count — so harness records
    reflect what ran, not just what was requested.
    """
    if num_simulated <= 0:
        return 0
    resolved = resolve_jobs(jobs)
    if resolved <= 1 or num_simulated <= 1:
        return 1
    return min(resolved, num_simulated)


# ----------------------------------------------------------------------
# GC tuning for batch simulation

#: (gen0, gen1, gen2) thresholds while simulating a batch of points.
_BATCH_GC_THRESHOLDS = (50_000, 25, 25)


def _tune_gc_for_simulation() -> None:
    """Collect once, freeze the startup heap, raise the gen-0 threshold.

    The simulator churns through millions of short-lived DynInstr /
    event-tuple objects, nearly all reclaimed by reference counting;
    the default gen-0 threshold (700) makes the cyclic collector
    rescan the (large, static) module/config heap thousands of times
    per point for nothing.  Freezing moves that startup heap into the
    permanent generation so collections only walk true churn.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(*_BATCH_GC_THRESHOLDS)


@contextmanager
def batch_gc_tuning() -> Iterator[None]:
    """Apply :func:`_tune_gc_for_simulation` for the duration of a batch.

    Restores the previous thresholds and unfreezes on exit, so callers
    embedded in larger processes (tests, notebooks) see no lasting
    change.
    """
    previous = gc.get_threshold()
    _tune_gc_for_simulation()
    try:
        yield
    finally:
        gc.set_threshold(*previous)
        gc.unfreeze()


# ----------------------------------------------------------------------
# Point enumeration

#: Policies each experiment simulates (None = not point-based).
_EXPERIMENT_POLICIES = {
    "calibration": (BASELINE, FREE_ATOMICS_FWD, VERSIONED),
    "figure1": (BASELINE,),
    "figure12": (BASELINE,),
    "figure13": (BASELINE, FREE_ATOMICS_FWD),
    "figure14": ALL_POLICIES,
    "figure15": ALL_POLICIES,
    "table2": (FREE_ATOMICS_FWD,),
    "headline": ALL_POLICIES,
    "table1": (),
}

#: The ablation sweeps in ``benchmarks/`` (subset, field, values), so a
#: harness-wide prefetch covers them too.
_ABLATIONS = (
    (("AS", "TPCC", "TATP", "CQ", "radiosity"), "aq_entries", (1, 2, 4)),
    (("AS", "TPCC", "TATP", "CQ"), "watchdog_cycles", (500, 2000, 10_000)),
    (
        ("AS", "TATP", "barnes", "fluidanimate", "radiosity"),
        "max_forward_chain",
        (1, 4, 32),
    ),
)


def experiment_points(
    experiment: str,
    scale: ExperimentScale,
    benchmarks: Optional[Sequence[str]] = None,
) -> list[Point]:
    """The simulation points ``experiment`` will request, in order."""
    try:
        policies = _EXPERIMENT_POLICIES[experiment]
    except KeyError:
        raise ConfigError(f"unknown experiment {experiment!r}") from None
    if benchmarks:
        names = tuple(benchmarks)
    elif experiment == "calibration":
        # calibration_rows defaults to the atomic-intensive subset —
        # mirror it so the prefetch is exact.
        names = tuple(n for n in BENCHMARK_ORDER if n in ATOMIC_INTENSIVE)
    else:
        names = BENCHMARK_ORDER
    points: list[Point] = []
    for name in names:
        for policy in policies:
            if experiment == "figure1":
                for preset in ("skylake", "icelake"):
                    points.append((name, policy.name, scale, preset))
            else:
                points.append((name, policy.name, scale, "icelake"))
    return points


def harness_points(
    scale: ExperimentScale,
    benchmarks: Optional[Sequence[str]] = None,
    include_ablations: bool = True,
) -> list[Point]:
    """Every point of the full figure/table harness (deduplicated)."""
    points: list[Point] = []
    for experiment in _EXPERIMENT_POLICIES:
        points.extend(experiment_points(experiment, scale, benchmarks))
    if include_ablations and benchmarks is None:
        for subset, fieldname, values in _ABLATIONS:
            for value in values:
                varied = dataclasses.replace(scale, **{fieldname: value})
                for name in subset:
                    points.append((name, FREE_ATOMICS_FWD.name, varied, "icelake"))
    return list(dict.fromkeys(points))


# ----------------------------------------------------------------------
# Parallel resolution

def disk_hits(points: Iterable[Point]) -> dict[Point, ResultSummary]:
    """Read the not-yet-memoized ``points`` that hit in the disk cache.

    Runs in the calling process and never simulates.  Each hit is
    memoized; misses (absent, corrupt or old-schema entries, or every
    point under ``REPRO_CACHE=off``) are left for simulation.
    """
    hits: dict[Point, ResultSummary] = {}
    for point in dict.fromkeys(points):
        if _runner.memoized(*point) is None:
            summary = _runner.disk_summary(*point)
            if summary is not None:
                _runner.memoize(*point, summary=summary)
                hits[point] = summary
    return hits


def _run_point(point: Point) -> tuple[Point, ResultSummary]:
    """Worker entry: resolve one point (rechecks the disk cache too)."""
    benchmark, policy_name, scale, preset = point
    summary = run_benchmark(
        benchmark, policy_by_name(policy_name), scale, core_preset=preset
    )
    return point, summary


def run_batch(points: Iterable[Point]) -> dict[Point, ResultSummary]:
    """Resolve ``points`` serially in this process, sharing infrastructure.

    This is the in-process batch runner: one interpreter resolves many
    points back to back, so everything the points have in common is
    paid once — the runner's infrastructure memos share generated
    workloads and resolved configs across policies (and, through the
    decode cache memoized on each Program, the static decode), and the
    whole batch runs under :func:`batch_gc_tuning`.  Already-memoized
    points are skipped.  Returns the summaries actually resolved.
    """
    pending = [p for p in dict.fromkeys(points) if _runner.memoized(*p) is None]
    resolved: dict[Point, ResultSummary] = {}
    if not pending:
        return resolved
    with batch_gc_tuning():
        for point in pending:
            resolved[point] = _run_point(point)[1]
    return resolved


#: Times :func:`prefetch` will replace a broken worker pool before
#: giving up and surfacing the partial result.
POOL_REBUILD_LIMIT = 1

#: Process-lifetime count of worker-pool rebuilds (serve metrics reads
#: this; tests reset it via :func:`_reset_pool_rebuilds`).
_POOL_REBUILDS = 0


def pool_rebuild_count() -> int:
    """How many times this process has replaced a crashed worker pool."""
    return _POOL_REBUILDS


def _note_pool_rebuild() -> None:
    global _POOL_REBUILDS
    _POOL_REBUILDS += 1


def _reset_pool_rebuilds() -> None:
    global _POOL_REBUILDS
    _POOL_REBUILDS = 0


def prefetch(
    points: Iterable[Point],
    jobs: Optional[int] = None,
    *,
    pool_rebuilds: int = POOL_REBUILD_LIMIT,
) -> dict[Point, ResultSummary]:
    """Resolve ``points``: disk hits here, misses on ``jobs`` workers.

    Already-memoized points are skipped.  The rest are first looked up
    in the disk cache by this process (:func:`disk_hits`); only the
    misses are simulated, so an all-hit pass builds no worker pool.
    Every resolved summary is deposited into the in-process memo, so
    subsequent ``run_benchmark`` calls are hits.  The serial path is
    :func:`run_batch`; with several misses and workers, the pool is
    sized to the misses, and each worker applies the same GC tuning
    once at startup and runs its share of points as an in-process batch
    of its own.  Returns the summaries of the points that were actually
    resolved, disk hits included.

    A crashed worker (OOM kill, SIGKILL, segfault) breaks the whole
    ``ProcessPoolExecutor`` — every in-flight future, not just the
    crasher's.  Completed points are never lost to that: results are
    memoized as each future finishes, the broken pool is replaced up to
    ``pool_rebuilds`` times, and only the unfinished points are
    resubmitted.  If the budget runs out with points still unresolved,
    :class:`~repro.common.errors.PartialSweepError` surfaces the
    completed summaries (disk hits included) and lists the failed
    points.
    """
    points = list(dict.fromkeys(points))
    hits = disk_hits(points)
    misses = [p for p in points if _runner.memoized(*p) is None]
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(misses) <= 1:
        return {**hits, **run_batch(misses)}
    resolved: dict[Point, ResultSummary] = dict(hits)
    remaining = misses
    rebuilds_left = pool_rebuilds
    while remaining:
        broke = False
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(remaining)),
                initializer=_tune_gc_for_simulation,
            ) as pool:
                futures = {pool.submit(_run_point, p): p for p in remaining}
                for future in as_completed(futures):
                    try:
                        point, summary = future.result()
                    except BrokenProcessPool:
                        # This future died with the pool; later ones may
                        # still carry results computed before the break.
                        broke = True
                        continue
                    _runner.memoize(*point, summary=summary)
                    resolved[point] = summary
        except BrokenProcessPool:
            broke = True  # pool broke at submit/shutdown time
        remaining = [p for p in remaining if p not in resolved]
        if not remaining:
            break
        if not broke:  # pragma: no cover - defensive; futures all resolved
            break
        if rebuilds_left <= 0:
            raise PartialSweepError(
                f"worker pool broke {1 + pool_rebuilds} time(s); "
                f"{len(resolved)}/{len(hits) + len(misses)} points completed "
                f"({len(hits)} from the disk cache), "
                f"unresolved: {[(p[0], p[1]) for p in remaining]}",
                completed=resolved,
                failed=remaining,
            )
        rebuilds_left -= 1
        _note_pool_rebuild()
    return resolved


def run_experiments_prefetch(
    experiments: Sequence[str],
    scale: ExperimentScale,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> tuple[int, int]:
    """Prefetch every point the listed experiments need.

    Returns ``(simulated, disk_hits)``: how many points were simulated
    and how many were read back from the disk cache.
    """
    points: list[Point] = []
    for experiment in experiments:
        if experiment in _EXPERIMENT_POLICIES:
            points.extend(experiment_points(experiment, scale, benchmarks))
    hits = disk_hits(points)
    return len(prefetch(points, jobs=jobs)), len(hits)
