"""The multicore system simulator.

:class:`System` wires N out-of-order cores (each with a private L1D+L2
hierarchy) to a shared directory over a crossbar, all driven by one
deterministic event queue, and runs a :class:`~repro.workloads.base.Workload`
to completion under a chosen atomic policy.

``run_workload`` is the one-call convenience entry point used by the
examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.common.config import SystemConfig, icelake_config
from repro.common.errors import ConfigError, DeadlockError, SimulationError
from repro.common.events import EventQueue
from repro.common.stats import StatsRegistry
from repro.consistency.model import Operation
from repro.core.policy import AtomicPolicy, FREE_ATOMICS_FWD
from repro.mem.data import GlobalMemory
from repro.mem.directory import DirectoryController
from repro.mem.hierarchy import PrivateHierarchy
from repro.mem.interconnect import Interconnect
from repro.uarch.core import OutOfOrderCore
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.attach import Observability


@dataclass
class CoreSummary:
    """Per-core results extracted after the run."""

    core_id: int
    finish_cycle: int
    committed: int
    committed_atomics: int
    active_cycles: int
    quiescent_cycles: int
    squashes: int


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    workload_name: str
    policy: AtomicPolicy
    cycles: int
    stats: StatsRegistry
    cores: list[CoreSummary]
    memory: GlobalMemory
    config: SystemConfig
    #: Per-core committed memory operations, when run with trace=True.
    traces: Optional[list[list[Operation]]] = None
    #: Run-health report, when run with observability attached (see
    #: :mod:`repro.obs.health`); carried into ``ResultSummary.meta``.
    health: Optional[dict] = None
    #: Spin fast-forward diagnostics (parks, spin_cycles_skipped,
    #: time_warp_jumps).  Deliberately NOT part of the stats registry or
    #: :class:`ResultSummary`: the fast-forwarded and reference runs must
    #: serialize byte-identically, and these numbers describe how the
    #: run was simulated, not what it computed.
    fastforward: Optional[dict] = None

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def summary(self, meta: Optional[Mapping] = None) -> "ResultSummary":
        """Flat, picklable projection (see :mod:`repro.system.summary`)."""
        from repro.system.summary import summarize

        return summarize(self, dict(meta) if meta else None)

    @property
    def committed_instructions(self) -> int:
        return self.stats.aggregate("committed")

    @property
    def committed_atomics(self) -> int:
        return self.stats.aggregate("atomics_committed")

    @property
    def apki(self) -> float:
        """Committed atomic RMWs per kilo-instruction (Figure 12)."""
        committed = self.committed_instructions
        return 1000.0 * self.committed_atomics / committed if committed else 0.0

    @property
    def timeouts(self) -> int:
        return self.stats.aggregate("watchdog_timeouts")

    @property
    def squashes(self) -> int:
        return self.stats.aggregate("squashes")

    @property
    def slowest_core(self) -> CoreSummary:
        return max(self.cores, key=lambda c: c.finish_cycle)

    def read_word(self, address: int) -> int:
        return self.memory.read(address)

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.workload_name!r}, {self.policy.name}, "
            f"cycles={self.cycles}, committed={self.committed_instructions})"
        )


class System:
    """A configured multicore ready to run one workload."""

    def __init__(
        self,
        workload: Workload,
        policy: AtomicPolicy = FREE_ATOMICS_FWD,
        config: Optional[SystemConfig] = None,
        trace: bool = False,
        observability: "Optional[Observability]" = None,
    ) -> None:
        if config is None:
            config = icelake_config(num_cores=workload.num_threads)
        if workload.num_threads > config.num_cores:
            raise ConfigError(
                f"workload has {workload.num_threads} threads but the "
                f"system only {config.num_cores} cores"
            )
        self.workload = workload
        self.policy = policy
        self.config = config
        self.queue = EventQueue()
        self.stats = StatsRegistry()
        self.memory = GlobalMemory(workload.initial_memory)
        self.network = Interconnect(
            self.queue,
            config.memory.network_latency,
            self.stats,
            banks=config.memory.llc_banks,
        )
        self.directory = DirectoryController(
            self.queue,
            self.network,
            config.memory,
            config.num_cores,
            self.stats,
        )
        self.cores: list[OutOfOrderCore] = []
        for thread in range(workload.num_threads):
            core_stats = self.stats.scoped(f"core{thread}")
            hierarchy = PrivateHierarchy(
                thread, self.queue, self.network, config.memory, core_stats
            )
            core = OutOfOrderCore(
                core_id=thread,
                program=workload.programs[thread],
                config=config,
                policy=policy,
                hierarchy=hierarchy,
                memory=self.memory,
                queue=self.queue,
                stats=core_stats,
                initial_regs=workload.regs_for(thread),
            )
            if trace:
                core.commit_trace = []
            self.cores.append(core)
        self._trace_enabled = trace
        self._ran = False
        #: Attached observer (:mod:`repro.obs`), or None.  Attachment
        #: happens here — after every component exists — so its
        #: listeners reach every probe slot; with None every slot stays
        #: None and the simulator runs no observability code.
        self.obs = observability
        if observability is not None:
            observability.attach(self)

    def run(self) -> SimulationResult:
        """Run to completion (every thread committed its Halt).

        Single-use: a ``System`` is consumed by its run.  Re-running a
        finished instance used to silently return a zero-cycle result
        with stale watchdog/stats state (cores are finished, the queue
        is empty), which poisoned sweep results when a harness reused
        systems; now it raises.
        """
        if self._ran:
            raise SimulationError(
                "System.run() is single-use; build a fresh System "
                f"(workload={self.workload.name}, policy={self.policy.name})"
            )
        self._ran = True
        for core in self.cores:
            core.start()
        if self.obs is not None:
            self.obs.on_run_start(self)
        # Hot loop: locals bound once.  Idle-core quiescing: a finished
        # core schedules no further events (fetch stopped at its Halt,
        # commit at the Halt's retirement) and is never polled — each
        # core decrements ``remaining`` exactly once, from its Halt
        # commit, so the loop's only per-event work is the counter
        # check.  Blocked-but-unfinished cores are likewise silent: they
        # are re-armed purely by memory responses, store-perform waiters
        # and unlock notifications (see OutOfOrderCore._maybe_resume_fetch
        # and AtomicQueue's on_fully_unlocked wiring).
        remaining = [len(self.cores)]

        def core_finished() -> None:
            remaining[0] -= 1

        for core in self.cores:
            core.on_finished = core_finished
        outcome = self.queue.drain(remaining, self.config.max_cycles)
        if outcome == 1:
            if any(core.parked for core in self.cores):
                # A parked core spins forever with no wake in flight:
                # the reference run would burn cycles until max_cycles,
                # so report the same failure it would.
                raise SimulationError(
                    f"exceeded max_cycles={self.config.max_cycles} "
                    f"(policy={self.policy.name}, "
                    f"workload={self.workload.name})"
                )
            self._raise_deadlock(
                {c.core_id for c in self.cores if not c.finished}
            )
        if outcome == 2:
            raise SimulationError(
                f"exceeded max_cycles={self.config.max_cycles} "
                f"(policy={self.policy.name}, "
                f"workload={self.workload.name})"
            )
        assert not any(core.parked for core in self.cores)
        if self.network.debug_leaks and len(self.queue) == 0:
            # Only sound on a fully drained queue: every handler-retained
            # pooled message must have been replayed and released.
            self.network.assert_no_leaks()
        end_cycle = self.queue.now
        health = (
            self.obs.finalize_run(self, end_cycle)
            if self.obs is not None
            else None
        )
        summaries = []
        for core in self.cores:
            core.finalize(end_cycle)
            scoped = self.stats.scoped(f"core{core.core_id}")
            summaries.append(
                CoreSummary(
                    core_id=core.core_id,
                    finish_cycle=core.finish_cycle or end_cycle,
                    committed=scoped.get("committed"),
                    committed_atomics=scoped.get("atomics_committed"),
                    active_cycles=core.active_cycles,
                    quiescent_cycles=core.quiescent_cycles,
                    squashes=scoped.get("squashes"),
                )
            )
        return SimulationResult(
            workload_name=self.workload.name,
            policy=self.policy,
            cycles=end_cycle,
            stats=self.stats,
            cores=summaries,
            memory=self.memory,
            config=self.config,
            traces=(
                [core.commit_trace or [] for core in self.cores]
                if self._trace_enabled
                else None
            ),
            health=health,
            fastforward={
                "parks": sum(c.ff_parks for c in self.cores),
                "spin_cycles_skipped": sum(
                    c.spin_cycles_skipped for c in self.cores
                ),
                "time_warp_jumps": self.queue.warp_jumps,
            },
        )

    def _raise_deadlock(self, unfinished: set[int]) -> None:
        details = []
        for index in sorted(unfinished):
            core = self.cores[index]
            details.append(
                f"core{index}: pc={core.pc} rob={len(core.rob)} "
                f"lq={len(core.lq)} sq={len(core.sq)} "
                f"locks={sorted(core.aq.locked_lines())}"
            )
        raise DeadlockError(
            "event queue empty with unfinished threads "
            f"(policy={self.policy.name}, workload={self.workload.name}):\n  "
            + "\n  ".join(details)
        )


def run_workload(
    workload: Workload,
    policy: AtomicPolicy = FREE_ATOMICS_FWD,
    config: Optional[SystemConfig] = None,
    trace: bool = False,
    observability: "Optional[Observability]" = None,
) -> SimulationResult:
    """Build a :class:`System` for ``workload`` and run it."""
    return System(
        workload,
        policy=policy,
        config=config,
        trace=trace,
        observability=observability,
    ).run()
