"""The benchmark's workloads: definitions, timed passes, traced passes, checks.

Every call into the simulator goes through a public entry point
(``prefetch``, ``run_benchmark``, ``generate_workload``, ``System`` /
``run_workload``, ``SimulationResult.summary``, ``ResultCache``, the
figure/table/calibration row functions, ``Observability``), and the
benchmark times the calls from outside.  See README.md for why each
workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import pickle
import platform
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import repro
from repro.analysis.calibration import calibration_rows
from repro.analysis.engine import (
    batch_gc_tuning,
    experiment_points,
    harness_points,
    prefetch,
)
from repro.analysis.figures import (
    figure1_rows,
    figure12_rows,
    figure13_rows,
    figure14_rows,
    figure15_rows,
)
from repro.analysis.runner import (
    ExperimentScale,
    bench_config_and_digest,
    bench_system_config,
    clear_cache,
    disk_cache_key,
    memoized,
    run_benchmark,
)
from repro.analysis.tables import table1_rows, table2_rows
from repro.common.cache import CACHE_DIR_ENV, CACHE_TOGGLE_ENV, ResultCache
from repro.core.policy import FREE_ATOMICS_FWD, policy_by_name
from repro.obs import Observability, ObsConfig
from repro.system.simulator import System, run_workload
from repro.system.summary import ResultSummary
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import BENCHMARK_ORDER

from perfbench.tracing import (
    NullTracer,
    SimCounters,
    Tracer,
    profile_metrics,
    profiled,
)

#: The paper's Fig. 14 headline: free+fwd execution-time reduction (%)
#: over all workloads and over the atomic-intensive ones.
PAPER_REDUCTION_ALL = 12.5
PAPER_REDUCTION_AI = 25.2

#: Instructions per thread of every point.  The generator floors each
#: program at two loop iterations, so this barely moves the run length.
INSTRUCTIONS = 1000

#: Core count and seed of the Fig. 14 accuracy check.  The workload
#: profiles were tuned at seed 42.
ACCURACY_THREADS = 2
REFERENCE_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``kind`` is "sweep", "replay" or "paper"."""

    name: str
    kind: str
    threads: int
    #: Profiles of the figure harness (sweep/replay) and of the Fig. 14
    #: accuracy check (every kind); None = all 26.
    benchmarks: Optional[tuple[str, ...]] = None
    #: sweep: profiles whose harness points the traced run decomposes and
    #: the timed run simulates a second time.
    traced_benchmarks: tuple[str, ...] = ()
    #: paper: (benchmark, policy name) points of one pass.
    points: tuple[tuple[str, str], ...] = ()
    observed: bool = False
    #: Times set-up runs in one process; set-up time is their median.
    setup_repeats: int = 3
    #: Fewest timed passes.  The paper workloads time each point in two
    #: passes and keep its faster time: host-speed bursts only ever slow
    #: a point down.
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_cold",
            "sweep",
            threads=2,
            traced_benchmarks=("AS", "TPCC", "canneal"),
        ),
        Workload(
            "paper32",
            "paper",
            threads=32,
            points=(
                ("canneal", "baseline"),
                ("canneal", "free+fwd"),
                ("AS", "free+fwd"),
            ),
            min_passes=2,
        ),
        # The fill is a whole cold sweep (~15 s on two cores), so it runs
        # once; repeating it would triple the run.
        Workload("replay_warm", "replay", threads=2, setup_repeats=1),
        Workload(
            "paper32_observed",
            "paper",
            threads=32,
            points=(("canneal", "free+fwd"),),
            observed=True,
            min_passes=2,
        ),
    )
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    summary_sha: str = ""
    samples: int = 0
    spans: list[dict] = dataclasses.field(default_factory=list)
    notes: dict = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def scale_for(threads: int, seed: int) -> ExperimentScale:
    return ExperimentScale(
        num_threads=threads, instructions_per_thread=INSTRUCTIONS, seed=seed
    )


def point_id(point) -> str:
    benchmark, policy, scale, preset = point
    return f"{benchmark}/{policy}/{scale.num_threads}c/{preset}"


def harness(w: Workload, scale: ExperimentScale) -> list:
    """The workload's points: harness points or explicit paper points."""
    if w.kind == "paper":
        return [(b, p, scale, "icelake") for b, p in w.points]
    return harness_points(scale, w.benchmarks, include_ablations=False)


def identity(w: Workload, seed: int, points: list) -> dict:
    """The workload's definition, recorded beside its numbers."""
    listing = "\n".join(point_id(p) for p in points)
    return {
        "workload": w.name,
        "points": len(points),
        "point_digest": hashlib.sha256(listing.encode()).hexdigest()[:16],
        "scale": dataclasses.asdict(scale_for(w.threads, seed)),
        "seed": seed,
        "jobs": nproc() if w.kind != "paper" else 1,
        "nproc": nproc(),
        "python": platform.python_version(),
    }


def summary_problems(summary) -> list[str]:
    """Completion checks on one summary; empty when it is sound."""
    problems = []
    threads = summary.meta["scale"]["num_threads"]
    if summary.num_cores != threads or len(summary.cores) != threads:
        problems.append(f"{len(summary.cores)} cores, expected {threads}")
    if any(not 0 < c.finish_cycle <= summary.cycles for c in summary.cores):
        problems.append("a core did not finish within the run")
    committed = sum(c.committed for c in summary.cores)
    if committed != summary.committed_instructions or committed <= 0:
        problems.append(
            f"per-core committed {committed} != "
            f"aggregate {summary.committed_instructions}"
        )
    return problems


def digest(summaries: dict) -> str:
    """Canonical-JSON digest of summaries keyed by point id."""
    h = hashlib.sha256()
    for pid in sorted(summaries):
        h.update(pid.encode())
        h.update(summaries[pid].canonical_json().encode())
    return h.hexdigest()


def fig14_errors(rows: list) -> tuple[float, float]:
    """|simulated free+fwd reduction - paper| (pp), all and atomic-intensive.

    ``rows`` are ``figure14_rows``' output; its "average" and "average-AI"
    rows hold the geometric means of the normalized execution times.
    """
    averages = {row["benchmark"]: row[FREE_ATOMICS_FWD.name] for row in rows}
    return (
        abs(100.0 * (1.0 - averages["average"]) - PAPER_REDUCTION_ALL),
        abs(100.0 * (1.0 - averages["average-AI"]) - PAPER_REDUCTION_AI),
    )


def figure_rows(scale: ExperimentScale, benchmarks) -> list:
    """Every figure, table and calibration row function of the harness.

    Returns the Fig. 14 rows.
    """
    for rows in (
        figure1_rows,
        figure12_rows,
        figure13_rows,
        figure15_rows,
        table2_rows,
        calibration_rows,
    ):
        rows(scale, benchmarks)
    table1_rows(bench_system_config(scale))
    return figure14_rows(scale, benchmarks)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@functools.cache
def source_digest() -> str:
    """Digest of the simulator's source files."""
    source = pathlib.Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        h.update(str(path.relative_to(source)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Workdir:
    """Cache directories for one run, selected through ``REPRO_CACHE_DIR``.

    Fresh ones live under the run's own scratch directory, which
    ``close`` removes.  What outlives the run is keyed by the
    ``source_digest``: the reference cache holds only the
    seed-independent Fig. 14 reference points, so later runs of the
    same code replay them instead of simulating them again, and the
    summary digests of earlier runs are kept to check that a repeated
    run gives the same summaries.
    """

    def __init__(self, root) -> None:
        self.root = root
        self.count = 0
        os.environ.pop(CACHE_TOGGLE_ENV, None)

    def reference_cache(self) -> None:
        path = self.root.parent / f"reference-{source_digest()}"
        path.mkdir(parents=True, exist_ok=True)
        os.environ[CACHE_DIR_ENV] = str(path)

    def earlier_sha(self, key: str, sha: str) -> str:
        """The summary digest an earlier run of this source kept for ``key``.

        Keeps ``sha`` and returns it when no earlier run did.
        """
        path = self.root.parent / f"summary-shas-{source_digest()}.json"
        shas = json.loads(path.read_text()) if path.exists() else {}
        earlier = shas.setdefault(key, sha)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(shas, indent=1, sort_keys=True) + "\n")
        return earlier

    def fresh_cache(self) -> ResultCache:
        self.count += 1
        path = self.root / f"cache-{self.count}"
        path.mkdir(parents=True)
        os.environ[CACHE_DIR_ENV] = str(path)
        return ResultCache(path)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# resolution with per-point failure accounting


def resolve(points: list, jobs: int) -> tuple[dict, dict]:
    """Resolve points through the engine: (summaries, errors) by point id.

    ``prefetch`` raises on the first failing point, so after a failure
    the remaining points are resolved one at a time to find which ones
    fail (the entries the pool already wrote are disk hits).
    """
    errors = {}
    try:
        prefetch(points, jobs=jobs)
    except Exception:  # noqa: BLE001 - a failing point is counted, not fatal
        for point in points:
            if memoized(*point) is None:
                try:
                    run_benchmark(
                        point[0], policy_by_name(point[1]), point[2], point[3]
                    )
                except Exception as exc:  # noqa: BLE001
                    errors[point_id(point)] = repr(exc)
    summaries = {}
    for point in points:
        summary = memoized(*point)
        if summary is not None:
            summaries[point_id(point)] = summary
    return summaries, errors


class Run:
    """Counts attempted and failed points and collects problems.

    Each ``check`` call is one attempt at every point it lists; a point
    fails an attempt at most once, however many checks it fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.attempt = 0
        self.failures: set[tuple[int, str]] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, pids: list[str], summaries: dict, errors=None) -> None:
        self.attempt += 1
        self.attempted += len(pids)
        for pid, error in (errors or {}).items():
            self.fail(pid, f"{pid}: {error}")
        for pid in pids:
            summary = summaries.get(pid)
            if summary is None:
                self.fail(pid, f"{pid}: no summary")
                continue
            for problem in summary_problems(summary):
                self.fail(pid, f"{pid}: {problem}")

    def fail(self, pid: str, message: str) -> None:
        """Fail ``pid`` in the latest attempt."""
        self.failures.add((self.attempt, pid))
        self.problems.append(message)


# ----------------------------------------------------------------------
# timed runs


def prepare(w: Workload, seed: int, workdir: Workdir) -> dict:
    """Everything a workload sets up before its first timed call."""
    scale = scale_for(w.threads, seed)
    state = {"scale": scale, "points": harness(w, scale)}
    if w.kind == "paper":
        state["config"] = bench_system_config(scale)
        state["workloads"] = {
            b: generate_workload(b, scale.workload_scale)
            for b in dict.fromkeys(p[0] for p in state["points"])
            if b in BENCHMARK_ORDER
        }
    elif w.kind == "replay":
        workdir.fresh_cache()
        clear_cache(infrastructure=True)
        filled, errors = resolve(state["points"], nproc())
        state["filled"] = filled
        state["fill_errors"] = errors
    return state


def paper_meta(point) -> dict:
    """The meta a paper point's summary carries."""
    benchmark, _, scale, _ = point
    return {"benchmark": benchmark, "scale": dataclasses.asdict(scale)}


def paper_point(state: dict, point, observed: bool):
    benchmark, policy, _, _ = point
    workload = state["workloads"].get(benchmark)
    if workload is None:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    result = run_workload(
        workload,
        policy=policy_by_name(policy),
        config=state["config"],
        observability=Observability(ObsConfig()) if observed else None,
    )
    return result.summary(meta=paper_meta(point))


def one_pass(w: Workload, state: dict, workdir: Workdir) -> tuple:
    """One timed pass: (seconds, summaries, errors, seconds per point, rows).

    Summaries, errors and point times are keyed by point id; only the
    paper workloads, which run their points serially, time each point.
    ``rows`` are the sweeps' Fig. 14 rows, None for the paper workloads.
    """
    points, scale = state["points"], state["scale"]
    if w.kind == "paper":
        summaries, errors, times = {}, {}, {}
        for point in points:
            pid = point_id(point)
            start = time.perf_counter()
            try:
                summaries[pid] = paper_point(state, point, w.observed)
            except Exception as exc:  # noqa: BLE001
                errors[pid] = repr(exc)
            times[pid] = time.perf_counter() - start
        return sum(times.values()), summaries, errors, times, None
    if w.kind == "sweep":
        workdir.fresh_cache()
        clear_cache(infrastructure=True)
    else:
        clear_cache()
    start = time.perf_counter()
    summaries, errors = resolve(points, nproc())
    rows = figure_rows(scale, w.benchmarks)
    return time.perf_counter() - start, summaries, errors, {}, rows


def entry_versions(cache: ResultCache) -> dict:
    return {
        str(path): path.stat().st_mtime_ns for path in cache.root.glob("*/*.json")
    }


def resimulate(w: Workload, state: dict, first: dict, workdir: Workdir, run: Run):
    """Simulate the traced profiles' sweep points again into an empty cache.

    One cold sweep pass outlasts a run, so the run's own passes cannot
    show that a point repeats; each of these must equal ``first``.
    """
    points = [p for p in state["points"] if p[0] in w.traced_benchmarks]
    workdir.fresh_cache()
    clear_cache(infrastructure=True)
    again, errors = resolve(points, nproc())
    pids = [point_id(p) for p in points]
    run.check(pids, again, errors)
    for pid in pids:
        if pid in again and pid in first:
            if again[pid].canonical_json() != first[pid].canonical_json():
                run.fail(pid, f"{pid}: differs when simulated again")


def run_timed(
    w: Workload, seed: int, seconds: float, import_s: float, workdir: Workdir
) -> Outcome:
    setups = []
    for _ in range(w.setup_repeats):
        start = time.perf_counter()
        state = prepare(w, seed, workdir)
        setups.append(time.perf_counter() - start)
    run = Run()
    pids = [point_id(p) for p in state["points"]]
    if w.kind == "replay":
        run.check(pids, state["filled"], state["fill_errors"])
        versions = entry_versions(ResultCache())
    rates, shas, fastest = [], [], {}
    start = time.perf_counter()
    while True:
        elapsed, summaries, errors, times, rows = one_pass(w, state, workdir)
        rates.append(len(pids) / elapsed)
        for pid, seconds_taken in times.items():
            fastest[pid] = min(seconds_taken, fastest.get(pid, seconds_taken))
        shas.append(digest(summaries))
        run.check(pids, summaries, errors)
        if w.kind == "replay":
            for pid, summary in summaries.items():
                filled = state["filled"].get(pid)
                if filled is None or filled.canonical_json() != summary.canonical_json():
                    run.fail(pid, f"{pid}: replay differs from what set-up wrote")
        if len(rates) >= w.min_passes and time.perf_counter() - start >= seconds:
            break
    if len(set(shas)) != 1:
        run.problems.append(f"summary_sha differs across passes: {sorted(set(shas))}")
    key = f"{w.name}/{identity(w, seed, state['points'])['point_digest']}/seed{seed}"
    earlier = workdir.earlier_sha(key, shas[0])
    if earlier != shas[0]:
        run.problems.append(f"summary_sha differs from an earlier run's {earlier}")
    if w.kind == "replay" and entry_versions(ResultCache()) != versions:
        run.problems.append("replay rewrote cache entries (a point missed on disk)")
    if w.kind == "sweep":
        resimulate(w, state, summaries, workdir, run)
    if w.observed:
        check_observed(state, summaries, run)

    # Fig. 14 accuracy at the seed the profiles were tuned on, so it
    # repeats exactly from run to run; the sweeps also report it at the
    # run's own seed, the held-back check.
    benchmarks = w.benchmarks or BENCHMARK_ORDER
    reference = scale_for(ACCURACY_THREADS, REFERENCE_SEED)
    apoints = experiment_points("figure14", reference, benchmarks)
    workdir.reference_cache()
    asummaries, aerrors = resolve(apoints, nproc())
    run.check([point_id(p) for p in apoints], asummaries, aerrors)
    if aerrors:
        err_all = err_ai = float("nan")
    else:
        err_all, err_ai = fig14_errors(figure14_rows(reference, benchmarks))
    notes = {"fig14_reference_seed": REFERENCE_SEED}
    if rows is not None:
        notes["fig14_err_pp_at_run_seed"] = fig14_errors(rows)

    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "points_per_s": (
            len(pids) / sum(fastest.values()) if fastest else statistics.median(rates)
        ),
        "peak_rss_mb": peak_rss_mb(),
        "fig14_err_all_pp": err_all,
        "fig14_err_ai_pp": err_ai,
    }
    return Outcome(
        metrics=metrics,
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        summary_sha=shas[0],
        samples=len(rates),
        notes=notes,
    )


def check_observed(state: dict, observed: dict, run: Run) -> None:
    """Observed summaries equal plain ones bar ``meta.health``; no audit hits."""
    for point in state["points"]:
        pid = point_id(point)
        summary = observed.get(pid)
        if summary is None:
            continue
        health = summary.meta.get("health") or {}
        audits = health.get("audits", {})
        if audits.get("violations") or audits.get("final_violations"):
            run.fail(pid, f"{pid}: audit violations {audits}")
        payload = summary.to_json_dict()
        payload["meta"] = {k: v for k, v in payload["meta"].items() if k != "health"}
        try:
            plain = paper_point(state, point, observed=False)
        except Exception as exc:  # noqa: BLE001
            run.fail(pid, f"{pid}: plain rerun failed: {exc!r}")
            continue
        if payload != plain.to_json_dict():
            run.fail(pid, f"{pid}: observed summary differs from the plain run")


# ----------------------------------------------------------------------
# traced runs


def decomposed_pass(
    w: Workload,
    state: dict,
    points: list,
    metas: dict,
    tracer,
    counters,
    profiler,
    cache,
) -> tuple[dict, Counter]:
    """Resolve points one public call at a time, each call in a span.

    For sweep points this is what ``run_benchmark`` does on a cold disk
    cache (get, generate, build, run, summarize, pickle as a worker
    ships it, put); for replay points, what it does on a warm one.
    ``metas`` holds each summary's meta by point id.  Returns the
    summaries and the cache and generation counts.
    """
    summaries = {}
    generated = {}
    counts = Counter()
    for point in points:
        benchmark, policy, scale, preset = point
        pid = point_id(point)
        if w.kind == "paper":
            config = state["config"]
        else:
            config, config_digest = bench_config_and_digest(scale, preset)
            key = disk_cache_key(benchmark, policy, scale, preset, config_digest)
            with tracer.span("cache.get", pid), profiled(profiler):
                payload = cache.get(key)
                if payload is not None:
                    summary = ResultSummary.from_json_dict(payload)
            counts["hits" if payload is not None else "misses"] += 1
            if payload is not None:
                with tracer.span("engine.pickle", pid):
                    summary = pickle.loads(pickle.dumps(summary))
                summaries[pid] = summary
                if counters is not None:
                    counters.add_summary(summary)
                continue
        with tracer.span("workloads.generate", pid):
            workload = generated.get(benchmark)
            if workload is None:
                workload = generate_workload(benchmark, scale.workload_scale)
                generated[benchmark] = workload
                counts["generated"] += 1
        with tracer.span("system.build", pid):
            system = System(
                workload,
                policy=policy_by_name(policy),
                config=config,
                observability=Observability(ObsConfig()) if w.observed else None,
            )
        with tracer.span("system.run", pid):
            start = time.perf_counter()
            with profiled(profiler):
                result = system.run()
            run_s = time.perf_counter() - start
        with tracer.span("system.summary", pid):
            summary = result.summary(meta=metas.get(pid))
        if w.kind != "paper":
            with tracer.span("engine.pickle", pid):
                summary = pickle.loads(pickle.dumps(summary))
            with tracer.span("cache.put", pid):
                cache.put(key, summary.to_json_dict())
            counts["bytes_written"] += cache.path_for(key).stat().st_size
        summaries[pid] = summary
        if counters is not None:
            counters.add_summary(summary)
            counters.add_run(result, run_s)
    return summaries, counts


def run_traced(w: Workload, seed: int, workdir: Workdir) -> Outcome:
    """Per-layer numbers: spans, module profile, simulated counters.

    Sweep and replay points are first resolved through ``prefetch`` and
    the row functions, whose summaries give each point's meta.  Then
    the traced points are resolved twice, one public call at a time:
    first with spans only (span times and counters come from this pass),
    then with cProfile around every ``System.run`` and cache read
    (module times and call counts).  Their wall ratio is the tracing
    overhead.  The replay makes one unrecorded pass before both, so
    both read cache files that are already warm.
    """
    state = prepare(w, seed, workdir)
    scale = state["scale"]
    points = state["points"]
    if w.kind == "sweep":
        points = harness_points(scale, w.traced_benchmarks, include_ablations=False)
    pids = [point_id(p) for p in points]
    run = Run()
    tracer, counters = Tracer(), SimCounters()
    if w.kind == "paper":
        metas = {point_id(p): paper_meta(p) for p in points}
    else:
        if w.kind == "sweep":
            workdir.fresh_cache()
            clear_cache(infrastructure=True)
            row_benchmarks = w.traced_benchmarks
        else:
            run.check(pids, state["filled"], state["fill_errors"])
            clear_cache()
            row_benchmarks = w.benchmarks
        with tracer.span("engine.prefetch", w.name):
            engine, errors = resolve(points, nproc())
        with tracer.span("analysis.rows", w.name):
            figure_rows(scale, row_benchmarks)
        run.check(pids, engine, errors)
        metas = {pid: summary.meta for pid, summary in engine.items()}

    def pass_cache() -> ResultCache:
        return ResultCache() if w.kind == "replay" else workdir.fresh_cache()

    # Sweep and replay points run under the engine's batch GC tuning, as
    # its workers run them; paper points under the default GC, as the
    # timed run does.
    gc_tuning = contextlib.nullcontext if w.kind == "paper" else batch_gc_tuning
    profiler = cProfile.Profile()
    with gc_tuning():
        if w.kind == "replay":
            decomposed_pass(
                w, state, points, metas, NullTracer(), None, None, pass_cache()
            )
        start = time.perf_counter()
        first, counts = decomposed_pass(
            w, state, points, metas, tracer, counters, None, pass_cache()
        )
        plain_s = time.perf_counter() - start
        start = time.perf_counter()
        second, _ = decomposed_pass(
            w, state, points, metas, NullTracer(), None, profiler, pass_cache()
        )
        profiled_s = time.perf_counter() - start

    run.check(pids, first)
    if digest(first) != digest(second):
        run.problems.append("summaries differ between the two traced passes")
    if w.kind != "paper" and digest(engine) != digest(first):
        run.problems.append("engine summaries differ from the decomposed pass")
    if w.kind == "replay":
        for pid, summary in first.items():
            if state["filled"][pid].canonical_json() != summary.canonical_json():
                run.fail(pid, f"{pid}: replay differs from what set-up wrote")

    lookups = counts["hits"] + counts["misses"]
    metrics = tracer.span_metrics()
    metrics.update(
        {
            "workloads.generated": counts["generated"],
            "cache.hits": counts["hits"],
            "cache.misses": counts["misses"],
            "cache.hit_ratio": counts["hits"] / lookups if lookups else 0.0,
            "cache.bytes_written": counts["bytes_written"],
        }
    )
    metrics.update(profile_metrics(profiler))
    metrics.update(counters.metrics())
    metrics["trace.overhead_ratio"] = profiled_s / plain_s
    return Outcome(
        metrics=metrics,
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        summary_sha=digest(first),
        samples=1,
        spans=tracer.spans,
    )
