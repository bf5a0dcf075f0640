"""A run leaves no cyclic garbage, and the simulator owns the GC regime.

Squashes drop their instructions' back-references and ``run_workload``
unwires the System it built, so reference counting frees everything a
run allocated: with the collector disabled, a full collection after the
run finds nothing.  ``System.run`` drains under
:data:`~repro.system.simulator.GC_THRESHOLDS`, re-entrantly and
restored on error, and leaves a System its caller holds intact.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.engine import batch_gc_tuning
from repro.common.config import icelake_config
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.core.policy import FREE_ATOMICS_FWD
from repro.mem.invariants import verify_system
from repro.obs import ObsConfig, Observability, validate_trace
from repro.system.simulator import GC_THRESHOLDS, System, run_workload
from repro.uarch.probe import probe_of
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import small_system_config

#: Thresholds no caller uses, so a leak of the regime is visible.
HOST_THRESHOLDS = (1234, 7, 9)


def _small_point():
    """AS (a spin lock) on 4 cores: its squashes throw away spin laps."""
    scale = WorkloadScale(num_threads=4, instructions_per_thread=200, seed=0)
    return generate_workload("AS", scale), small_system_config(4)


def _paper_point():
    """canneal at the paper's 32 cores, short enough for tier-1."""
    scale = WorkloadScale(num_threads=32, instructions_per_thread=100, seed=0)
    return generate_workload("canneal", scale), icelake_config(num_cores=32)


def _set_leg(monkeypatch, leg: str) -> None:
    """``fast``: spin fast-forward on (the default); ``nospinff``: off."""
    if leg == "nospinff":
        monkeypatch.setenv("REPRO_NO_SPINFF", "1")
    else:
        monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)


@pytest.fixture
def collector_off():
    """Collect what came before, then keep the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def host_thresholds():
    previous = gc.get_threshold()
    gc.set_threshold(*HOST_THRESHOLDS)
    yield
    gc.set_threshold(*previous)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("leg", ["fast", "nospinff"])
    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
    def test_small_run(self, monkeypatch, collector_off, leg, observed):
        _set_leg(monkeypatch, leg)
        workload, config = _small_point()
        obs = Observability(ObsConfig()) if observed else None
        squashes = run_workload(
            workload, policy=FREE_ATOMICS_FWD, config=config, observability=obs
        ).squashes
        assert squashes > 0
        assert gc.collect() == 0
        del obs
        assert gc.collect() == 0

    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
    def test_paper_width_run(self, monkeypatch, collector_off, observed):
        _set_leg(monkeypatch, "fast")
        workload, config = _paper_point()
        obs = Observability(ObsConfig()) if observed else None
        squashes = run_workload(
            workload, policy=FREE_ATOMICS_FWD, config=config, observability=obs
        ).squashes
        assert squashes > 0
        assert gc.collect() == 0
        del obs
        assert gc.collect() == 0


def _system_recording_thresholds(seen: list) -> System:
    """A small System whose first commit records the GC thresholds."""
    workload, config = _small_point()
    system = System(workload, policy=FREE_ATOMICS_FWD, config=config)

    def commit(instr) -> None:
        if not seen:
            seen.append(gc.get_threshold())

    probe_of(system.cores[0]).listen(commit=commit)
    return system


class TestGcRegime:
    def test_run_drains_under_the_regime(self, host_thresholds):
        seen: list = []
        _system_recording_thresholds(seen).run()
        assert seen == [GC_THRESHOLDS]
        assert gc.get_threshold() == HOST_THRESHOLDS

    def test_run_workload_builds_under_the_regime(
        self, monkeypatch, host_thresholds
    ):
        seen: list = []
        init = System.__init__

        def spy(system, *args, **kwargs) -> None:
            seen.append(gc.get_threshold())
            init(system, *args, **kwargs)

        monkeypatch.setattr(System, "__init__", spy)
        workload, config = _small_point()
        run_workload(workload, policy=FREE_ATOMICS_FWD, config=config)
        assert seen == [GC_THRESHOLDS]
        assert gc.get_threshold() == HOST_THRESHOLDS

    def test_run_inside_a_batch_changes_nothing(self, monkeypatch, host_thresholds):
        calls: list = []
        set_threshold = gc.set_threshold

        def spy(*args) -> None:
            calls.append(args)
            set_threshold(*args)

        seen: list = []
        system = _system_recording_thresholds(seen)
        with batch_gc_tuning():
            monkeypatch.setattr(gc, "set_threshold", spy)
            system.run()
            monkeypatch.setattr(gc, "set_threshold", set_threshold)
            assert gc.get_threshold() == GC_THRESHOLDS
        assert seen == [GC_THRESHOLDS]
        assert calls == []
        assert gc.get_threshold() == HOST_THRESHOLDS

    def test_max_cycles_error_restores_host_state(self, host_thresholds):
        workload, config = _small_point()
        frozen = gc.get_freeze_count()
        with pytest.raises(SimulationError, match="max_cycles"):
            run_workload(
                workload,
                policy=FREE_ATOMICS_FWD,
                config=config.replace(max_cycles=50),
            )
        assert gc.get_threshold() == HOST_THRESHOLDS
        assert gc.get_freeze_count() == frozen

    def test_error_inside_the_drain_restores_host_state(self, host_thresholds):
        workload, config = _small_point()
        system = System(workload, policy=FREE_ATOMICS_FWD, config=config)

        def commit(instr) -> None:
            raise RuntimeError("listener failed")

        probe_of(system.cores[0]).listen(commit=commit)
        frozen = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="listener failed"):
            system.run()
        assert gc.get_threshold() == HOST_THRESHOLDS
        assert gc.get_freeze_count() == frozen


class TestOwnership:
    def test_held_system_stays_inspectable(self):
        workload, config = _small_point()
        system = System(workload, policy=FREE_ATOMICS_FWD, config=config)
        result = system.run()
        assert all(core.finished for core in system.cores)
        assert system.queue.now == result.cycles
        assert system.stats.aggregate("committed") == result.committed_instructions
        assert verify_system(system, quiesced=len(system.queue) == 0) == []

    def test_observer_outlives_run_workload(self):
        workload, config = _small_point()
        obs = Observability(ObsConfig())
        result = run_workload(
            workload, policy=FREE_ATOMICS_FWD, config=config, observability=obs
        )
        assert obs.bus.total() > 0
        assert obs.bus.counts["pipeline/squash"] == result.squashes
        payload = obs.chrome_payload()
        assert validate_trace(payload) == []
        assert payload["traceEvents"]


def test_event_queue_discard_drops_every_pending_entry():
    queue = EventQueue()
    fired: list = []
    queue.post(1, lambda: fired.append("ring"))
    queue.post(10_000, lambda: fired.append("heap"))
    assert len(queue) == 2
    queue.discard()
    assert len(queue) == 0
    assert queue.drain([1], 10**9) == 1
    assert fired == []
