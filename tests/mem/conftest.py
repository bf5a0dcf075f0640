"""Harness for memory-subsystem tests: a directory + N hierarchies."""

from __future__ import annotations

import pytest

from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.mem.directory import DirectoryController
from repro.mem.hierarchy import PrivateHierarchy
from repro.mem.interconnect import Interconnect
from tests.conftest import tiny_memory_config


class FakeLockView:
    """Scriptable lock view: tests mark lines locked explicitly."""

    def __init__(self):
        self.locked_lines: set[int] = set()
        self.locked_ways: dict[int, set[int]] = {}

    def is_line_locked(self, line: int) -> bool:
        return line in self.locked_lines

    def locked_l1_ways(self, set_index: int) -> set[int]:
        return self.locked_ways.get(set_index, set())


class MemoryHarness:
    """Queue + network + directory + per-core private hierarchies."""

    def __init__(self, num_cores: int = 2, **config_kwargs):
        self.config = tiny_memory_config(**config_kwargs)
        self.queue = EventQueue()
        self.stats = StatsRegistry()
        self.network = Interconnect(self.queue, self.config.network_latency, self.stats)
        self.directory = DirectoryController(
            self.queue, self.network, self.config, num_cores, self.stats
        )
        self.hierarchies: list[PrivateHierarchy] = []
        self.lock_views: list[FakeLockView] = []
        for core in range(num_cores):
            hierarchy = PrivateHierarchy(
                core,
                self.queue,
                self.network,
                self.config,
                self.stats.scoped(f"core{core}"),
            )
            view = FakeLockView()
            hierarchy.lock_view = view
            self.hierarchies.append(hierarchy)
            self.lock_views.append(view)

    def settle(self, max_cycles: int = 100_000) -> None:
        """Drain the event queue; fail if it is still busy ``max_cycles``
        cycles from now."""
        if self.queue.drain([1], self.queue.now + max_cycles) == 2:
            raise AssertionError("event queue did not settle")

    def read(self, core: int, line: int) -> bool:
        """Issue a read; returns whether it completed after settling."""
        done = []
        self.hierarchies[core].request_read(line, lambda: done.append(True))
        self.settle()
        return bool(done)

    def write(self, core: int, line: int) -> bool:
        done = []
        self.hierarchies[core].request_write(line, lambda: done.append(True))
        self.settle()
        return bool(done)


@pytest.fixture
def harness() -> MemoryHarness:
    return MemoryHarness(num_cores=2)
