"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DirectoryConfig,
    FreeAtomicsConfig,
    MemoryConfig,
    SystemConfig,
)
from repro.isa.builder import ProgramBuilder
from repro.workloads.base import Workload


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a per-session tmp dir.

    Unit tests must not read results persisted by earlier runs (or by
    the benchmark harness), and must not pollute ``~/.cache/repro``.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def tiny_memory_config(
    l1_ways: int = 4,
    l1_sets: int = 4,
    directory_coverage: float = 4.0,
    network_latency: int = 2,
    dram_latency: int = 20,
) -> MemoryConfig:
    """A miniature hierarchy that makes evictions/recalls easy to force."""
    return MemoryConfig(
        l1d=CacheConfig("L1D", l1_sets * l1_ways * 64, l1_ways, 0, 2),
        l2=CacheConfig("L2", l1_sets * l1_ways * 64 * 4, l1_ways * 2, 1, 3),
        l3=CacheConfig("L3", 64 * 1024, 8, 1, 5),
        directory=DirectoryConfig(coverage=directory_coverage, ways=4, latency=2),
        network_latency=network_latency,
        dram_latency=dram_latency,
    )


def small_system_config(
    num_cores: int = 2,
    rob: int = 64,
    watchdog_cycles: int = 600,
    aq_entries: int = 4,
    max_forward_chain: int = 32,
    watchdog_enabled: bool = True,
    **memory_overrides: object,
) -> SystemConfig:
    """A small but fully featured system for fast tests."""
    return SystemConfig(
        num_cores=num_cores,
        core=CoreConfig(rob_entries=rob, lq_entries=32, sq_entries=24),
        memory=tiny_memory_config(**memory_overrides),  # type: ignore[arg-type]
        free_atomics=FreeAtomicsConfig(
            aq_entries=aq_entries,
            watchdog_cycles=watchdog_cycles,
            max_forward_chain=max_forward_chain,
            watchdog_enabled=watchdog_enabled,
        ),
        max_cycles=5_000_000,
    )


def counter_workload(
    num_threads: int, iterations: int, address: int = 0x10000
) -> Workload:
    """Each thread fetch_adds a shared counter ``iterations`` times."""
    builder = ProgramBuilder("counter")
    builder.li(1, address)
    builder.li(2, 0)
    builder.label("loop")
    builder.fetch_add(dst=3, base=1, imm=1)
    builder.addi(2, 2, 1)
    builder.branch_lt(2, iterations, "loop")
    program = builder.build()
    return Workload(
        "counter", [program] * num_threads, meta={"iterations": iterations}
    )


@pytest.fixture
def small_config() -> SystemConfig:
    return small_system_config()


def replace_free_atomics(config: SystemConfig, **changes: object) -> SystemConfig:
    return config.replace(
        free_atomics=dataclasses.replace(config.free_atomics, **changes)
    )


def run_all(queue) -> None:
    """Run every pending event, and every event those post, until the
    queue is empty."""
    outcome = queue.drain([1], sys.maxsize)
    assert outcome == 1


def run_until(queue, limit: int) -> None:
    """Run every event due at or before ``limit``, then move the clock
    up to ``limit``."""
    queue.drain([1], limit)
    if queue.now < limit:
        queue._advance(limit)
