"""Crashed-worker recovery in the parallel engine.

A SIGKILLed (OOM'd, segfaulted) worker breaks the whole
``ProcessPoolExecutor`` — before this fix, ``prefetch`` let
``BrokenProcessPool`` propagate and a whole sweep's completed points
were lost.  Now the pool is rebuilt (bounded) and only unfinished
points are resubmitted; an exhausted budget surfaces
:class:`PartialSweepError` carrying the completed summaries.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.analysis import engine
from repro.analysis.engine import (
    _reset_pool_rebuilds,
    pool_rebuild_count,
    prefetch,
)
from repro.analysis.runner import ExperimentScale, clear_cache
from repro.common.errors import PartialSweepError
from repro.core.policy import BASELINE, FREE_ATOMICS_FWD

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-injection workers rely on fork inheritance",
)

#: Benchmark whose point the injected fault targets.
CRASH_BENCHMARK = "AS"

_original_run_point = engine._run_point


def _crash_once_run_point(point):
    """SIGKILL this worker the first time it sees the crash point."""
    flag = pathlib.Path(os.environ["REPRO_TEST_CRASH_FLAG"])
    if point[0] == CRASH_BENCHMARK and not flag.exists():
        flag.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _original_run_point(point)


def _crash_always_run_point(point):
    """SIGKILL on the crash point, every attempt — after a beat, so
    concurrently-running good points get a chance to finish first."""
    if point[0] == CRASH_BENCHMARK:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    return _original_run_point(point)


def _points(seed: int) -> list:
    scale = ExperimentScale(num_threads=2, instructions_per_thread=120, seed=seed)
    return [
        (name, policy.name, scale, "icelake")
        for name in ("AS", "watersp", "CQ", "TATP")
        for policy in (FREE_ATOMICS_FWD,)
    ]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch, tmp_path):
    clear_cache()
    _reset_pool_rebuilds()
    monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(tmp_path / "crashed"))
    yield
    clear_cache()


def test_prefetch_survives_one_worker_crash(monkeypatch):
    monkeypatch.setattr(engine, "_run_point", _crash_once_run_point)
    seed = int.from_bytes(os.urandom(2), "big")
    points = _points(seed)
    resolved = prefetch(points, jobs=2)
    assert set(resolved) == set(points)  # nothing dropped, crash point retried
    assert pool_rebuild_count() == 1
    assert all(summary.cycles > 0 for summary in resolved.values())


def test_prefetch_exhausted_budget_surfaces_partial_result(monkeypatch):
    monkeypatch.setattr(engine, "_run_point", _crash_always_run_point)
    seed = int.from_bytes(os.urandom(2), "big")
    points = _points(seed)
    crash_points = [p for p in points if p[0] == CRASH_BENCHMARK]
    with pytest.raises(PartialSweepError) as excinfo:
        prefetch(points, jobs=2, pool_rebuilds=1)
    error = excinfo.value
    assert set(crash_points) <= set(error.failed)
    # Completed points are carried on the error, not thrown away...
    assert set(error.completed) <= set(points)
    assert set(error.completed).isdisjoint(error.failed)
    # ...and they were memoized on the way, so a retry skips them.
    from repro.analysis.runner import memoized

    for point in error.completed:
        assert memoized(*point) is not None


def test_partial_result_includes_disk_hits(monkeypatch, tmp_path):
    """Hits read before the pool count as completed, never as failed."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    seed = int.from_bytes(os.urandom(2), "big")
    points = _points(seed)
    on_disk = [p for p in points if p[0] in ("watersp", "CQ")]
    prefetch(on_disk, jobs=1)
    clear_cache()
    monkeypatch.setattr(engine, "_run_point", _crash_always_run_point)
    with pytest.raises(PartialSweepError) as excinfo:
        prefetch(points, jobs=2, pool_rebuilds=1)
    error = excinfo.value
    assert set(on_disk) <= set(error.completed)
    pool_points = [p for p in points if p not in on_disk]
    assert set(error.failed) <= set(pool_points)
    assert ("AS", FREE_ATOMICS_FWD.name) in [(p[0], p[1]) for p in error.failed]
    assert set(error.completed).isdisjoint(error.failed)
    assert len(error.completed) + len(error.failed) == len(points)
    assert (
        f"{len(error.completed)}/{len(points)} points completed "
        f"({len(on_disk)} from the disk cache)"
    ) in str(error)


def test_serial_prefetch_unaffected():
    seed = int.from_bytes(os.urandom(2), "big")
    scale = ExperimentScale(num_threads=2, instructions_per_thread=100, seed=seed)
    points = [("AS", BASELINE.name, scale, "icelake")]
    resolved = prefetch(points, jobs=1)
    assert set(resolved) == set(points)
    assert pool_rebuild_count() == 0
