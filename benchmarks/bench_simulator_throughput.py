"""Simulator throughput microbenchmarks (not a paper figure).

Measures host-side simulation speed on a fixed workload, so regressions
in the event-driven core show up in benchmark history.  These use real
pytest-benchmark rounds (they are cheap).
"""

import sys

from repro.core.policy import BASELINE, FREE_ATOMICS_FWD
from repro.system.simulator import run_workload
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import counter_workload, small_system_config


def bench_counter_contention(benchmark):
    workload = counter_workload(num_threads=4, iterations=60)
    config = small_system_config(4)

    def run():
        return run_workload(workload, policy=FREE_ATOMICS_FWD, config=config)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.read_word(0x10000) == 240


def bench_memory_system_contention_8t(benchmark):
    """Memory-system-heavy point: 8 threads fetch_add one shared line.

    Every atomic is a coherence miss after the first, so the run is
    dominated by directory transactions, interconnect messages, and
    lock-deferred invalidations — the paths the message pool and bound
    counters optimize.  The fenced baseline policy keeps the line
    bouncing between cores (free+fwd would forward locally and starve
    the memory system of traffic).
    """
    workload = counter_workload(num_threads=8, iterations=40)
    config = small_system_config(8)

    def run():
        return run_workload(workload, policy=BASELINE, config=config)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.read_word(0x10000) == 320
    # Sanity: the point is actually contended (messages dominate commits).
    messages = result.stats.aggregate("messages")
    assert messages > result.committed_atomics


def bench_generated_workload_baseline(benchmark):
    workload = generate_workload(
        "canneal", WorkloadScale(num_threads=2, instructions_per_thread=600)
    )
    config = small_system_config(2)

    def run():
        return run_workload(workload, policy=BASELINE, config=config)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.committed_atomics > 0


def bench_event_kernel_post_drain(benchmark):
    """Raw EventQueue rate: post + drain."""
    from repro.common.events import EventQueue

    def run():
        queue = EventQueue()
        sink = [0]

        def tick():
            sink[0] += 1

        for i in range(50_000):
            queue.post(i % 7, tick)
        queue.drain([1], sys.maxsize)
        return sink[0]

    assert benchmark.pedantic(run, rounds=3, iterations=1) == 50_000
