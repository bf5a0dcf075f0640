"""Concurrency hardening of the disk cache.

Regression tests for the three races that concurrent processes sharing
one cache directory (pool workers, parallel CLI sweeps) can hit:

1. the corrupt-entry unlink race — a reader observing a torn file must
   not delete the valid entry a concurrent ``put`` just replaced it
   with;
2. leaked ``.tmp`` files from writers killed between ``mkstemp`` and
   ``os.replace`` — reaped by ``clear()`` and opportunistically on
   ``put``;
3. the cold-key stampede — N processes racing the same key elect one
   simulator under the advisory ``flock`` sidecar.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.common.cache import TMP_STALE_SECONDS, ResultCache

KEY = "ab" + "0" * 62
OTHER = "ab" + "1" * 62  # same fanout dir as KEY


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _write_corrupt(cache: ResultCache, key: str) -> pathlib.Path:
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ torn json", encoding="utf-8")
    return path


class TestCorruptEntryRace:
    def test_torn_entry_reads_as_miss_and_is_dropped(self, cache):
        path = _write_corrupt(cache, KEY)
        assert cache.get(KEY) is None
        assert not path.exists()

    def test_concurrent_replacement_survives_drop(self, cache):
        """The race itself, deterministically interleaved.

        Reader observes the torn file (stat + content), a concurrent
        ``put`` atomically replaces it with valid data, and only then
        does the reader attempt its cleanup unlink.  The old code
        unlinked blindly and destroyed the fresh entry.
        """
        path = _write_corrupt(cache, KEY)
        observed = os.stat(path)  # what get() saw before the parse failed
        cache.put(KEY, {"fresh": True})  # the concurrent writer wins the race
        ResultCache._unlink_observed(path, observed)  # reader's cleanup
        assert cache.get(KEY) == {"fresh": True}

    def test_unlink_guard_drops_the_observed_version(self, cache):
        path = _write_corrupt(cache, KEY)
        observed = os.stat(path)
        ResultCache._unlink_observed(path, observed)
        assert not path.exists()

    def test_valid_entry_untouched(self, cache):
        cache.put(KEY, {"v": 1})
        assert cache.get(KEY) == {"v": 1}
        assert cache.path_for(KEY).exists()


class TestTmpReaping:
    def _orphan(self, cache: ResultCache, age: float) -> pathlib.Path:
        fanout = cache.path_for(KEY).parent
        fanout.mkdir(parents=True, exist_ok=True)
        orphan = fanout / f".{KEY[:8]}-orphan.tmp"
        orphan.write_text("half a summ", encoding="utf-8")
        stamp = time.time() - age
        os.utime(orphan, (stamp, stamp))
        return orphan

    def test_clear_reaps_tmp_files(self, cache):
        orphan = self._orphan(cache, age=0.0)  # fresh: clear reaps anyway
        cache.put(KEY, {"v": 1})
        assert cache.clear() == 1  # tmp files don't count as entries
        assert not orphan.exists()
        assert cache.get(KEY) is None

    def test_clear_reaps_lock_sidecars(self, cache):
        with cache.locked(KEY):
            pass
        assert cache.lock_path(KEY).exists()
        cache.clear()
        assert not cache.lock_path(KEY).exists()

    def test_put_reaps_stale_tmp_in_same_fanout(self, cache):
        orphan = self._orphan(cache, age=TMP_STALE_SECONDS + 60)
        cache.put(OTHER, {"v": 2})
        assert not orphan.exists()
        assert cache.get(OTHER) == {"v": 2}

    def test_put_spares_fresh_tmp(self, cache):
        """A live writer's in-flight tmp file must never be reaped."""
        inflight = self._orphan(cache, age=0.0)
        cache.put(OTHER, {"v": 2})
        assert inflight.exists()

    def test_reap_tmp_counts(self, cache):
        self._orphan(cache, age=TMP_STALE_SECONDS + 60)
        assert cache.reap_tmp() == 1
        assert cache.reap_tmp() == 0


class TestLockedPrimitive:
    def test_lock_held_and_released(self, cache):
        with cache.locked(KEY) as held:
            assert held
        with cache.locked(KEY) as held:  # not still held by the dead ctx
            assert held

    def test_degrades_without_lock_on_unusable_root(self, tmp_path):
        # A file where the cache root should be: every mkdir/open under
        # it fails with OSError (chmod tricks don't work when the test
        # suite runs as root).
        root = tmp_path / "not-a-dir"
        root.write_text("", encoding="utf-8")
        cache = ResultCache(root)
        with cache.locked(KEY) as held:
            assert not held  # degraded, but usable


# ----------------------------------------------------------------------
# multi-process stampede


def _stampede_worker(root: str, key: str, log: str, barrier) -> None:
    """Race to fill ``key``: compute only if still missing under the lock."""
    cache = ResultCache(pathlib.Path(root))
    barrier.wait()  # maximize the collision
    if cache.get(key) is not None:
        return
    with cache.locked(key):
        if cache.get(key) is not None:
            return  # the winner filled it while we blocked
        # "simulate": record that this process did the expensive work.
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.05)  # hold the race window open
        cache.put(key, {"by": os.getpid()})


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="stampede test forks",
)
def test_multiprocess_stampede_simulates_once(tmp_path):
    """N processes put/get the same cold key: exactly one computes."""
    root = tmp_path / "cache"
    log = tmp_path / "computed.log"
    log.touch()
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(4)
    procs = [
        ctx.Process(
            target=_stampede_worker, args=(str(root), KEY, str(log), barrier)
        )
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    computed = log.read_text(encoding="utf-8").splitlines()
    assert len(computed) == 1, f"expected one computation, got {computed}"
    payload = ResultCache(root).get(KEY)
    assert payload is not None and payload["by"] == int(computed[0])


def _benchmark_worker(log: str, barrier, seed: int) -> None:
    from repro.analysis import runner as _runner
    from repro.analysis.runner import ExperimentScale, clear_cache, run_benchmark
    from repro.core.policy import FREE_ATOMICS_FWD

    clear_cache()  # drop the memo inherited over fork; keep the disk layer
    original = _runner.run_workload

    def counting_run_workload(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    _runner.run_workload = counting_run_workload
    barrier.wait()
    scale = ExperimentScale(num_threads=2, instructions_per_thread=120, seed=seed)
    summary = run_benchmark("AS", FREE_ATOMICS_FWD, scale)
    assert summary.cycles > 0


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="stampede test forks",
)
def test_run_benchmark_stampede_single_flight(tmp_path, monkeypatch):
    """The full stack: N processes resolve the same cold point once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    log = tmp_path / "simulated.log"
    log.touch()
    seed = int.from_bytes(os.urandom(2), "big")  # unique cold point
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(3)
    procs = [
        ctx.Process(target=_benchmark_worker, args=(str(log), barrier, seed))
        for _ in range(3)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    simulated = log.read_text(encoding="utf-8").splitlines()
    assert len(simulated) == 1, f"expected one simulation, got {simulated}"
