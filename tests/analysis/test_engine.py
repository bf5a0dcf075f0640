"""Tests for the parallel experiment engine and result summaries.

The determinism-under-parallelism test is the load-bearing one: the
same point run serially, in a pool worker, and restored from the disk
cache must yield byte-identical ResultSummary JSON.
"""

import gc
import io
import multiprocessing
import os
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.analysis import engine, runner
from repro.analysis.engine import (
    JOBS_ENV,
    batch_gc_tuning,
    disk_hits,
    effective_jobs,
    experiment_points,
    harness_points,
    prefetch,
    resolve_jobs,
    run_batch,
)
from repro.analysis.runner import (
    ExperimentScale,
    clear_cache,
    memoize,
    memoized,
    run_benchmark,
)
from repro.common.cache import ResultCache
from repro.common.errors import ConfigError
from repro.core.policy import ALL_POLICIES, BASELINE, FREE_ATOMICS_FWD

SCALE = ExperimentScale(num_threads=2, instructions_per_thread=400)
POINT = ("AS", FREE_ATOMICS_FWD.name, SCALE, "icelake")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigError):
            resolve_jobs()


class TestEffectiveJobs:
    """The harness records what actually ran, via effective_jobs."""

    def test_serial_for_one_point(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(8, 1) == 1

    def test_capped_by_point_count(self):
        assert effective_jobs(8, 3) == 3

    def test_resolved_when_points_abound(self):
        assert effective_jobs(2, 12) == 2

    def test_serial_request_stays_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(None, 12) == 1

    def test_no_worker_when_nothing_simulated(self):
        assert effective_jobs(8, 0) == 0


class TestBatchRunner:
    def test_run_batch_dedups_and_memoizes(self):
        resolved = run_batch([POINT, POINT])
        assert set(resolved) == {POINT}
        assert memoized(*POINT) is resolved[POINT]

    def test_run_batch_skips_memoized(self):
        run_benchmark("AS", FREE_ATOMICS_FWD, SCALE)
        assert run_batch([POINT]) == {}

    def test_gc_tuning_restores_host_state(self):
        from repro.analysis.engine import _BATCH_GC_THRESHOLDS

        before = gc.get_threshold()
        with batch_gc_tuning():
            assert gc.get_threshold() == _BATCH_GC_THRESHOLDS
        assert gc.get_threshold() == before


class TestPointEnumeration:
    def test_figure1_has_both_presets(self):
        points = experiment_points("figure1", SCALE, benchmarks=["AS"])
        assert ("AS", BASELINE.name, SCALE, "skylake") in points
        assert ("AS", BASELINE.name, SCALE, "icelake") in points

    def test_figure14_has_all_policies(self):
        points = experiment_points("figure14", SCALE, benchmarks=["AS"])
        assert len(points) == len(ALL_POLICIES)
        assert ("AS", "versioned", SCALE, "icelake") in points

    def test_calibration_points_default_to_atomic_intensive(self):
        from repro.workloads.profiles import ATOMIC_INTENSIVE

        points = experiment_points("calibration", SCALE)
        assert points
        assert {p[0] for p in points} <= set(ATOMIC_INTENSIVE)
        assert {p[1] for p in points} == {"baseline", "free+fwd", "versioned"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            experiment_points("figure99", SCALE)

    def test_harness_points_deduplicated(self):
        points = harness_points(SCALE, benchmarks=["AS", "watersp"])
        assert len(points) == len(set(points))

    def test_harness_points_cover_ablations(self):
        points = harness_points(SCALE)
        aq1 = [p for p in points if p[2].aq_entries == 1]
        assert aq1, "ablation scales missing from full-harness prefetch"


class TestMemoHelpers:
    def test_memoize_roundtrip(self):
        summary = run_benchmark("AS", FREE_ATOMICS_FWD, SCALE)
        clear_cache()
        assert memoized(*POINT) is None
        memoize(*POINT, summary=summary)
        assert memoized(*POINT) is summary
        # run_benchmark now returns the deposited object without running.
        assert run_benchmark("AS", FREE_ATOMICS_FWD, SCALE) is summary


class TestPrefetch:
    def test_serial_prefetch_populates_memo(self):
        resolved = prefetch([POINT], jobs=1)
        assert set(resolved) == {POINT}
        assert memoized(*POINT) is resolved[POINT]

    def test_prefetch_skips_memoized(self):
        run_benchmark("AS", FREE_ATOMICS_FWD, SCALE)
        assert prefetch([POINT], jobs=1) == {}

    def test_pool_prefetch_populates_memo(self):
        other = ("watersp", FREE_ATOMICS_FWD.name, SCALE, "icelake")
        resolved = prefetch([POINT, other], jobs=2)
        assert set(resolved) == {POINT, other}
        assert memoized(*other) is not None


OTHERS = [
    (name, FREE_ATOMICS_FWD.name, SCALE, "icelake")
    for name in ("watersp", "CQ", "TATP")
]

_original_run_point = engine._run_point


def _recording_run_point(point):
    """Log each simulated point with the pid that ran it, then run it."""
    with open(os.environ["REPRO_TEST_SUBMITTED"], "a") as log:
        log.write(f"{point[0]} {os.getpid()}\n")
    return _original_run_point(point)


def _submitted() -> list[tuple[str, int]]:
    path = os.environ["REPRO_TEST_SUBMITTED"]
    if not os.path.exists(path):
        return []
    with open(path) as log:
        return [(name, int(pid)) for name, pid in map(str.split, log)]


def _entry_path(point):
    benchmark, policy, scale, preset = point
    _, digest = runner.bench_config_and_digest(scale, preset)
    return ResultCache().path_for(
        runner.disk_cache_key(benchmark, policy, scale, preset, digest)
    )


class TestParentReadsPoolSimulates:
    """Disk hits are read in the calling process; only misses are simulated."""

    @pytest.fixture(autouse=True)
    def _own_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_TEST_SUBMITTED", str(tmp_path / "submitted"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)

    def test_all_hit_prefetch_builds_no_pool(self, monkeypatch):
        points = [POINT, *OTHERS[:1]]
        written = {p: s.canonical_json() for p, s in prefetch(points, jobs=2).items()}
        clear_cache()

        def no_pool(*args, **kwargs):
            raise AssertionError("an all-hit prefetch built a worker pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        resolved = prefetch(points, jobs=2)
        assert set(resolved) == set(points)
        for point in points:
            assert memoized(*point) is resolved[point]
            assert resolved[point].canonical_json() == written[point]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the recording worker relies on fork inheritance",
    )
    def test_mixed_prefetch_sends_only_misses_to_workers(self, monkeypatch):
        hits = [POINT, OTHERS[0]]
        misses = OTHERS[1:]
        run_batch(hits)
        clear_cache()
        monkeypatch.setattr(engine, "_run_point", _recording_run_point)
        resolved = prefetch([*hits, *misses], jobs=2)
        assert set(resolved) == {*hits, *misses}
        submitted = _submitted()
        assert sorted(name for name, _ in submitted) == sorted(p[0] for p in misses)
        assert all(pid != os.getpid() for _, pid in submitted)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the recording worker relies on fork inheritance",
    )
    def test_truncated_entry_is_resimulated_by_a_worker(self, monkeypatch):
        torn, intact = POINT, OTHERS[0]
        good = run_batch([torn, intact])[torn].canonical_json()
        clear_cache()
        path = _entry_path(torn)
        path.write_text(path.read_text()[:40])
        monkeypatch.setattr(engine, "_run_point", _recording_run_point)
        cold = OTHERS[1]
        resolved = prefetch([torn, intact, cold], jobs=2)
        assert sorted(name for name, _ in _submitted()) == sorted([torn[0], cold[0]])
        assert all(pid != os.getpid() for _, pid in _submitted())
        assert resolved[torn].canonical_json() == good
        clear_cache()
        assert disk_hits([torn])[torn].canonical_json() == good

    def test_cache_off_parent_reads_no_file(self, monkeypatch):
        run_batch([POINT])
        clear_cache()
        monkeypatch.setenv("REPRO_CACHE", "off")

        def no_read(self, key):
            raise AssertionError("a cache file was read with REPRO_CACHE=off")

        monkeypatch.setattr(ResultCache, "get", no_read)
        assert disk_hits([POINT]) == {}
        resolved = prefetch([POINT], jobs=1)
        assert set(resolved) == {POINT}


class TestDeterminismUnderParallelism:
    """Serial, pool-worker, and disk-restored runs are byte-identical."""

    def test_three_way_identical_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        # Serial, disk cache off: pure simulation.
        monkeypatch.setenv("REPRO_CACHE", "off")
        serial = run_benchmark("AS", FREE_ATOMICS_FWD, SCALE).canonical_json()

        # Pool workers, disk cache on (workers also persist the entries).
        monkeypatch.setenv("REPRO_CACHE", "on")
        clear_cache()
        other = ("watersp", FREE_ATOMICS_FWD.name, SCALE, "icelake")
        pooled = prefetch([POINT, other], jobs=2)[POINT].canonical_json()

        # Fresh memo: restored from the disk entry the worker wrote.
        clear_cache()
        restored = run_benchmark("AS", FREE_ATOMICS_FWD, SCALE).canonical_json()

        assert serial == pooled
        assert serial == restored

    def test_summary_json_roundtrip_is_identity(self):
        from repro.system.summary import ResultSummary

        summary = run_benchmark("AS", BASELINE, SCALE)
        restored = ResultSummary.from_json_dict(summary.to_json_dict())
        assert restored.canonical_json() == summary.canonical_json()
        assert restored.cycles == summary.cycles
        assert restored.stats.aggregate("committed") == (
            summary.stats.aggregate("committed")
        )

    def test_obs_summary_survives_engine_pickling(self):
        """meta['health'] must survive the pool's pickle transport.

        The parallel engine ships ResultSummary objects between worker
        and parent via multiprocessing's ForkingPickler; an
        observability-attached summary carries the (nested, dict-heavy)
        run-health report in ``meta['health']``, which is exactly the
        part a lossy ``__reduce__`` or a non-picklable leak (a bound
        method, a live core) would corrupt first.
        """
        from repro.analysis.runner import bench_system_config, bench_workload
        from repro.obs.attach import Observability
        from repro.system.simulator import run_workload

        workload = bench_workload("AS", SCALE)
        config = bench_system_config(SCALE)
        result = run_workload(
            workload,
            policy=FREE_ATOMICS_FWD,
            config=config,
            observability=Observability(),
        )
        summary = result.summary(meta={"benchmark": "AS"})
        assert "health" in summary.meta

        buffer = io.BytesIO()
        ForkingPickler(buffer).dump(summary)
        restored = pickle.loads(buffer.getvalue())
        assert restored.meta["health"] == summary.meta["health"]
        assert restored.canonical_json() == summary.canonical_json()
