"""Spans, cProfile module grouping and simulated counters for traced runs.

Everything here observes the simulator from outside: spans wrap the
public calls the benchmark makes, the profiler is switched on only
around ``System.run`` and cache reads, and the simulated counters are read from the
summaries, ``SimulationResult.fastforward`` and the health report.
"""

from __future__ import annotations

import contextlib
import pathlib
import time
from collections import defaultdict
from typing import Iterator, Optional

#: Source modules whose self time and call count the traced run reports,
#: as dotted paths below the ``repro`` package.  ``obs`` is the whole
#: package; ``builtins`` is cProfile's bucket for C functions.  A module
#: that no longer exists reads as zero, never as an error.
PROFILED_MODULES = (
    "uarch.core",
    "uarch.spinff",
    "uarch.lsq",
    "uarch.dynins",
    "uarch.storeset",
    "common.events",
    "common.stats",
    "mem.hierarchy",
    "mem.cache",
    "mem.directory",
    "mem.interconnect",
    "mem.replacement",
    "mem.prefetch",
    "core.atomic_queue",
    "core.forwarding",
    "core.watchdog",
    "obs",
    "system.trace",
    "builtins",
)

#: Span names recorded around public calls, with the metric each feeds.
SPAN_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "system.build": "system.build_s",
    "system.run": "system.run_s",
    "system.summary": "system.summary_s",
    "engine.prefetch": "engine.prefetch_s",
    "engine.pickle": "engine.pickle_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "analysis.rows": "analysis.rows_s",
}


class Tracer:
    """In-memory span recorder: name, start, end, parent and trace id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "trace_id": trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def span_metrics(self) -> dict[str, float]:
        return {metric: self.total(name) for name, metric in SPAN_METRICS.items()}


class NullTracer:
    """Tracer stand-in that records nothing."""

    def span(self, name: str, trace_id: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()


@contextlib.contextmanager
def profiled(profiler) -> Iterator[None]:
    """Switch ``profiler`` on for the block; no-op when it is None."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def module_of(filename: str) -> Optional[str]:
    """The ``PROFILED_MODULES`` group a profiled code object belongs to."""
    if filename == "~":
        return "builtins"
    parts = pathlib.PurePath(filename).parts
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    last = len(parts) - 1 - parts[::-1].index("repro")
    below = parts[last + 1:]
    if below[0] == "obs":
        return "obs"
    dotted = ".".join(below)[: -len(".py")]
    return dotted.removesuffix(".__init__")


def profile_metrics(profiler) -> dict[str, float]:
    """``<module>.self_s`` / ``<module>.calls`` plus ``profile.calls_total``."""
    totals = {module: [0.0, 0] for module in PROFILED_MODULES}
    calls_total = 0
    if profiler is not None:
        profiler.create_stats()
        for (filename, _, _), (_, calls, self_s, _, _) in profiler.stats.items():
            calls_total += calls
            group = totals.get(module_of(filename))
            if group is not None:
                group[0] += self_s
                group[1] += calls
    metrics: dict[str, float] = {}
    for module, (self_s, calls) in totals.items():
        metrics[f"{module}.self_s"] = self_s
        metrics[f"{module}.calls"] = calls
    metrics["profile.calls_total"] = calls_total
    return metrics


class SimCounters:
    """Simulated counters summed over a workload's traced points."""

    def __init__(self) -> None:
        self.raw: dict[str, int] = defaultdict(int)
        self.run_s = 0.0

    def add_summary(self, summary) -> None:
        stats = summary.stats
        raw = self.raw
        raw["cycles"] += summary.cycles
        for name in (
            "committed",
            "dispatched",
            "squashes",
            "fences_executed",
            "fences_omitted",
            "watchdog_timeouts",
            "atomic_forwarded",
            "mem.invalidations",
            "mem.l1_hits",
            "mem.misses",
        ):
            raw[name] += stats.aggregate(name)
        for name in ("network.messages", "dir.l3_misses", "dir.queued_behind_pending"):
            raw[name] += stats.get(name)

    def add_run(self, result, run_s: float) -> None:
        """Fast-forward diagnostics and health of one live run."""
        self.run_s += run_s
        for name, value in (result.fastforward or {}).items():
            self.raw[f"ff.{name}"] += value
        health = result.health
        if health is not None:
            events = health["events"]
            self.raw["obs.events"] += sum(events["counts"].values())
            self.raw["obs.dropped"] += events["dropped"]
            audits = health["audits"]
            self.raw["obs.violations"] += len(audits["violations"]) + len(
                audits["final_violations"]
            )
            self.raw["obs.parks"] += health["fastforward"]["parks"]

    def metrics(self) -> dict[str, float]:
        raw = self.raw
        accesses = raw["mem.l1_hits"] + raw["mem.misses"]
        return {
            "system.sim_cycles": raw["cycles"],
            "system.run_us_per_kcycle": (
                1e6 * self.run_s / (raw["cycles"] / 1000) if raw["cycles"] else 0.0
            ),
            "uarch.committed": raw["committed"],
            "uarch.dispatched": raw["dispatched"],
            "uarch.commit_ratio": (
                raw["committed"] / raw["dispatched"] if raw["dispatched"] else 0.0
            ),
            "uarch.squashes": raw["squashes"],
            "uarch.spinff.parks": raw["ff.parks"],
            "uarch.spinff.spin_cycles_skipped": raw["ff.spin_cycles_skipped"],
            "common.events.time_warp_jumps": raw["ff.time_warp_jumps"],
            "core.fences_executed": raw["fences_executed"],
            "core.fences_omitted": raw["fences_omitted"],
            "core.watchdog_timeouts": raw["watchdog_timeouts"],
            "core.atomics_forwarded": raw["atomic_forwarded"],
            "mem.messages": raw["network.messages"],
            "mem.invalidations": raw["mem.invalidations"],
            "mem.l1_hit_ratio": raw["mem.l1_hits"] / accesses if accesses else 0.0,
            "mem.l3_misses": raw["dir.l3_misses"],
            "mem.queued_behind_pending": raw["dir.queued_behind_pending"],
            "obs.events_emitted": raw["obs.events"],
            "obs.events_dropped": raw["obs.dropped"],
            "obs.audit_violations": raw["obs.violations"],
            "obs.parks": raw["obs.parks"],
        }
