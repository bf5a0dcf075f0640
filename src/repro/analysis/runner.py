"""Shared experiment runner with layered result caching.

The figure/table computations below all need (benchmark, policy) runs;
several figures share the same runs (e.g., Table 2, Figure 13, 14 and 15
all use the free+fwd run).  ``run_benchmark`` resolves each point through
two cache layers:

1. an **in-process memo** (dict), so one harness invocation simulates
   each combination once;
2. the **persistent disk cache** (:mod:`repro.common.cache`), so a fresh
   shell replays yesterday's sweep near-instantly.

Both layers store :class:`~repro.system.summary.ResultSummary` — a flat,
picklable projection of the run — which is also what crosses process
boundaries when the parallel engine (:mod:`repro.analysis.engine`) fans
points across a worker pool.  The disk key hashes the fully-resolved
system config (not just the preset name) plus the package version, so
edits to ``icelake_config`` or the simulator release invalidate entries
automatically.

Scaling note (documented in EXPERIMENTS.md): the paper simulates 32
cores for seconds of guest time.  The default :class:`ExperimentScale`
runs 8 cores for a few thousand instructions per thread, and scales the
deadlock watchdog to 2000 cycles — still two orders of magnitude above
any legitimate lock-hold latency, but small enough relative to our run
lengths that a detected deadlock costs a bounded fraction of the run,
as it does in the paper's multi-billion-cycle ROIs.  Environment
variables ``REPRO_BENCH_THREADS`` / ``REPRO_BENCH_INSTRS`` /
``REPRO_BENCH_SEED`` / ``REPRO_BENCH_WATCHDOG`` / ``REPRO_BENCH_AQ`` /
``REPRO_BENCH_FWD_CHAIN`` override the scale for bigger (slower) or
differently-shaped reproductions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

from repro import __version__
from repro.common.cache import (
    SIM_CODE_VERSION,
    ResultCache,
    cache_enabled,
    content_key,
)
from repro.common.config import SystemConfig, icelake_config, skylake_config
from repro.common.errors import ConfigError
from repro.core.policy import AtomicPolicy
from repro.system.simulator import run_workload
from repro.system.summary import SUMMARY_SCHEMA, ResultSummary
from repro.workloads.generator import WorkloadScale, generate_workload

#: Watchdog threshold used by the harness (see module docstring).
BENCH_WATCHDOG_CYCLES = 2000


def _env_int(var: str, default: int, minimum: int = 1) -> int:
    """Integer env override with a validation error on bad values."""
    raw = os.environ.get(var)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{var} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ConfigError(f"{var} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentScale:
    """Size of a harness run; hashable so results can be memoized."""

    num_threads: int = 8
    instructions_per_thread: int = 2500
    seed: int = 42
    watchdog_cycles: int = BENCH_WATCHDOG_CYCLES
    aq_entries: int = 4
    max_forward_chain: int = 32

    @staticmethod
    def from_env() -> "ExperimentScale":
        return ExperimentScale(
            num_threads=_env_int("REPRO_BENCH_THREADS", 8),
            instructions_per_thread=_env_int("REPRO_BENCH_INSTRS", 2500),
            seed=_env_int("REPRO_BENCH_SEED", 42, minimum=0),
            watchdog_cycles=_env_int(
                "REPRO_BENCH_WATCHDOG", BENCH_WATCHDOG_CYCLES
            ),
            aq_entries=_env_int("REPRO_BENCH_AQ", 4),
            max_forward_chain=_env_int("REPRO_BENCH_FWD_CHAIN", 32),
        )

    @property
    def workload_scale(self) -> WorkloadScale:
        return WorkloadScale(
            num_threads=self.num_threads,
            instructions_per_thread=self.instructions_per_thread,
            seed=self.seed,
        )


def bench_system_config(
    scale: ExperimentScale, core_preset: str = "icelake"
) -> SystemConfig:
    """System config for harness runs (Table 1, harness-scaled watchdog)."""
    preset = {"icelake": icelake_config, "skylake": skylake_config}[core_preset]
    config = preset(num_cores=scale.num_threads)
    free_atomics = dataclasses.replace(
        config.free_atomics,
        watchdog_cycles=scale.watchdog_cycles,
        aq_entries=scale.aq_entries,
        max_forward_chain=scale.max_forward_chain,
    )
    return config.replace(free_atomics=free_atomics)


# -- shared-infrastructure memos ----------------------------------------
#
# Distinct from the *result* memo below: these cache the deterministic
# inputs a simulation point is built from (the generated workload, the
# resolved config and its digest), never a simulation outcome.  A batch
# of points shares them — the 4 policies of one benchmark reuse one
# generated workload and, via the decode cache memoized on the Program,
# one static decode.  Sharing is semantically invisible: Workload is a
# frozen dataclass, the System copies ``initial_memory`` into its own
# GlobalMemory, and ``regs_for`` returns fresh dicts.

_WORKLOAD_CACHE: dict[tuple, "object"] = {}
_CONFIG_CACHE: dict[tuple, tuple[SystemConfig, str]] = {}


def bench_workload(benchmark: str, scale: ExperimentScale):
    """The (shared, immutable) generated workload for a harness point."""
    key = (benchmark, scale.workload_scale)
    workload = _WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = _WORKLOAD_CACHE[key] = generate_workload(benchmark, key[1])
    return workload


def bench_config_and_digest(
    scale: ExperimentScale, core_preset: str = "icelake"
) -> tuple[SystemConfig, str]:
    """The (shared, frozen) resolved config and digest for a point."""
    key = (scale, core_preset)
    entry = _CONFIG_CACHE.get(key)
    if entry is None:
        config = bench_system_config(scale, core_preset)
        entry = _CONFIG_CACHE[key] = (config, config_digest(config))
    return entry


def config_digest(config: SystemConfig) -> str:
    """Content digest of a fully-resolved system config.

    Part of every disk-cache key: editing a preset (or any nested
    config dataclass) changes the digest, so stale entries can never be
    served for a different machine model.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


def disk_cache_key(
    benchmark: str,
    policy_name: str,
    scale: ExperimentScale,
    core_preset: str,
    digest: str,
) -> str:
    """Stable content hash identifying one simulation point on disk.

    Includes the package version *and* :data:`SIM_CODE_VERSION`: the
    latter is bumped on in-between-releases changes to simulation
    semantics, so a summary cached by older core code misses instead of
    being served stale.
    """
    return content_key(
        {
            "kind": "run_benchmark",
            "schema": SUMMARY_SCHEMA,
            "version": __version__,
            "sim_code_version": SIM_CODE_VERSION,
            "benchmark": benchmark,
            "policy": policy_name,
            "scale": dataclasses.asdict(scale),
            "core_preset": core_preset,
            "config_digest": digest,
        }
    )


_CACHE: dict[tuple, ResultSummary] = {}


def memoized(
    benchmark: str,
    policy_name: str,
    scale: ExperimentScale,
    core_preset: str = "icelake",
) -> ResultSummary | None:
    """The in-process memo entry for a point, if present."""
    return _CACHE.get((benchmark, policy_name, scale, core_preset))


def memoize(
    benchmark: str,
    policy_name: str,
    scale: ExperimentScale,
    core_preset: str = "icelake",
    *,
    summary: ResultSummary,
) -> None:
    """Deposit an externally-computed summary (e.g. from a pool worker)."""
    _CACHE[(benchmark, policy_name, scale, core_preset)] = summary


def _summary_from_disk(disk: ResultCache, disk_key: str) -> ResultSummary | None:
    """Deserialize a disk entry; corrupt/old entries read as misses."""
    payload = disk.get(disk_key)
    if payload is None:
        return None
    try:
        return ResultSummary.from_json_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None  # corrupt/old entry: caller falls through and re-runs


def disk_summary(
    benchmark: str,
    policy_name: str,
    scale: ExperimentScale,
    core_preset: str = "icelake",
) -> ResultSummary | None:
    """The point's disk-cache entry, or None; never simulates.

    A miss, a corrupt or old-schema entry, and a disabled disk cache
    (``REPRO_CACHE=off``) all read as None.  The result memo is not
    touched: memoizing a hit is the caller's choice.
    """
    if not cache_enabled():
        return None
    _, digest = bench_config_and_digest(scale, core_preset)
    disk_key = disk_cache_key(benchmark, policy_name, scale, core_preset, digest)
    return _summary_from_disk(ResultCache(), disk_key)


def run_benchmark(
    benchmark: str,
    policy: AtomicPolicy,
    scale: ExperimentScale,
    core_preset: str = "icelake",
) -> ResultSummary:
    """Resolve one (benchmark, policy) point: memo, disk cache, or run.

    Simulation is single-flight across processes: on a disk miss the
    runner takes the cache's advisory per-key ``flock`` before
    simulating, and re-checks the cache once the lock is held — so N
    processes (pool workers, concurrent CLI sweeps sharing one cache
    directory) racing on the same cold point elect one simulator and
    the rest replay its entry.  The lock is advisory: where ``flock`` is unavailable the
    race degrades to the old duplicated-work behaviour, never to a
    wrong result.
    """
    memo_key = (benchmark, policy.name, scale, core_preset)
    cached = _CACHE.get(memo_key)
    if cached is not None:
        return cached

    config, digest = bench_config_and_digest(scale, core_preset)
    disk_key = disk_cache_key(benchmark, policy.name, scale, core_preset, digest)
    disk = ResultCache() if cache_enabled() else None

    def simulate() -> ResultSummary:
        workload = bench_workload(benchmark, scale)
        result = run_workload(workload, policy=policy, config=config)
        return result.summary(
            meta={
                "benchmark": benchmark,
                "core_preset": core_preset,
                "scale": dataclasses.asdict(scale),
                "config_digest": digest,
                "version": __version__,
            }
        )

    if disk is None:
        summary = simulate()
    else:
        summary = _summary_from_disk(disk, disk_key)
        if summary is None:
            with disk.locked(disk_key) as held:
                if held:
                    # Someone may have filled the entry while we waited.
                    summary = _summary_from_disk(disk, disk_key)
                if summary is None:
                    summary = simulate()
                    disk.put(disk_key, summary.to_json_dict())
    _CACHE[memo_key] = summary
    return summary


def clear_cache(disk: bool = False, infrastructure: bool = False) -> int:
    """Drop the in-process memo; with ``disk=True`` also the disk cache.

    The shared-infrastructure memos (workloads, configs) survive a
    default clear — they hold deterministic *inputs*, so clearing the
    result memo and re-running re-simulates honestly with warm
    infrastructure (the harness best-of-N sweep relies on this).  Pass
    ``infrastructure=True`` to drop them too.

    Returns the number of disk entries removed (0 for memo-only clears).
    """
    _CACHE.clear()
    if infrastructure:
        _WORKLOAD_CACHE.clear()
        _CONFIG_CACHE.clear()
    if disk:
        return ResultCache().clear()
    return 0
