"""The probe tables (repro.uarch.probe) and spin fast-forward's use of them.

A tool counts per-core event streams on the probe.  Spin fast-forward
replays a parked span's counts of ``pipeline`` streams on wake, and
refuses to park a lap that moves a stream of any other category.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.config import icelake_config
from repro.core.policy import FREE_ATOMICS_FWD
from repro.system.simulator import System
from repro.uarch.probe import (
    CoreProbe,
    DirectoryProbe,
    directory_probe_of,
    probe_of,
)
from repro.workloads.generator import WorkloadScale, generate_workload


def stream(cat: str, count: int = 0) -> SimpleNamespace:
    return SimpleNamespace(cat=cat, count=count)


class TestCoreProbe:
    def test_listeners_chain_in_attach_order(self):
        probe = CoreProbe()
        seen = []
        probe.listen(dispatch=lambda i: seen.append(("a", i)))
        probe.listen(dispatch=lambda i: seen.append(("b", i)), commit=seen.append)
        probe.dispatch(1)
        probe.commit(2)
        assert seen == [("a", 1), ("b", 1), 2]
        assert probe.park is None and probe.unpark is None

    def test_unknown_point_is_rejected(self):
        with pytest.raises(TypeError, match="no point 'dispatched'"):
            CoreProbe().listen(dispatched=print)
        with pytest.raises(TypeError, match="no point 'perform'"):
            DirectoryProbe().listen(perform=print)

    def test_core_components_share_one_table(self):
        workload = generate_workload(
            "AS", WorkloadScale(num_threads=2, instructions_per_thread=50, seed=0)
        )
        system = System(workload, config=icelake_config(num_cores=2))
        core, other = system.cores
        probe = probe_of(core)
        assert probe_of(core) is probe
        assert core.aq.probe is core.watchdog.probe is core.hierarchy.probe is probe
        assert other.probe is None and other.hierarchy.probe is None
        assert system.directory.probe is None
        assert directory_probe_of(system.directory) is system.directory.probe

    def test_lap_delta_and_replay(self):
        probe = CoreProbe()
        probe.streams += [stream("pipeline", 5), stream("spinff", 1)]
        before = probe.snapshot()
        probe.streams[0].count += 3
        probe.streams.append(stream("pipeline", 2))  # registered mid-lap
        delta = probe.lap_delta(before)
        assert delta == (3, 0, 2)
        probe.replay(delta, laps=4)
        assert [s.count for s in probe.streams] == [20, 1, 10]

    def test_lap_moving_another_category_is_not_replayable(self):
        probe = CoreProbe()
        probe.streams += [stream("pipeline"), stream("aq")]
        before = probe.snapshot()
        probe.streams[0].count += 1
        probe.streams[1].count += 1
        assert probe.lap_delta(before) is None


@pytest.mark.parametrize("cat", ["pipeline", "aq"])
def test_parking_replays_or_declines_probe_streams(cat, monkeypatch):
    """A dispatch-counting stream on every core of a 32-thread run: as a
    ``pipeline`` stream the cores park and the count stays exact; as any
    other category no lap parks."""
    monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)
    workload = generate_workload(
        "canneal",
        WorkloadScale(num_threads=32, instructions_per_thread=100, seed=0),
    )
    system = System(
        workload, policy=FREE_ATOMICS_FWD, config=icelake_config(num_cores=32)
    )
    counted = []
    for core in system.cores:
        dispatches = stream(cat)
        counted.append(dispatches)
        probe = probe_of(core)
        probe.streams.append(dispatches)

        def count(_instr, s=dispatches) -> None:
            s.count += 1

        probe.listen(dispatch=count)
    result = system.run()
    if cat == "pipeline":
        assert result.fastforward["parks"] > 0, "never parked: dead test"
    else:
        assert result.fastforward["parks"] == 0
    assert sum(s.count for s in counted) == result.stats.aggregate("dispatched")
