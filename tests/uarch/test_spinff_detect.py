"""When the spin fast-forward detector parks, and when it retries.

``repro.uarch.spinff`` parks a core at the first recurrence of its
relative signature: the event kernel's posting-cycle index already
knows when every pending entry was posted, so no extra laps are
observed.  A capture blocked only by an in-flight delivery to the core
retries when that delivery lands rather than after the fixed cooldown.
A park may also pick up entries that the previous un-park spliced back
into the ring; the index reports their live twins' posting cycles, so
the replay stays exact.
"""

from __future__ import annotations

import pytest

from repro.common.config import icelake_config
from repro.core.policy import FREE_ATOMICS_FWD
from repro.system.simulator import System
from repro.uarch.probe import probe_of
from repro.uarch.spinff import COOLDOWN_CYCLES, SpinFastForward
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.properties.test_spinff_side_effects import spin_workload


@pytest.fixture(autouse=True)
def _engine_on(monkeypatch):
    monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)


def _as_workload():
    return generate_workload(
        "AS", WorkloadScale(num_threads=4, instructions_per_thread=50, seed=0)
    )


def test_parks_one_period_after_the_anchor(monkeypatch):
    anchors = {}
    original = SpinFastForward.on_commit_boundary

    def on_commit_boundary(engine) -> None:
        was_observing = engine.observing
        original(engine)
        if engine.observing and not was_observing:
            anchors[engine.core.core_id] = engine.queue.now

    monkeypatch.setattr(
        SpinFastForward, "on_commit_boundary", on_commit_boundary
    )
    system = System(
        spin_workload("none", 500, 0),
        policy=FREE_ATOMICS_FWD,
        config=icelake_config(num_cores=2),
    )
    parks = []
    for core in system.cores:
        probe_of(core).listen(
            park=lambda cycle, period, _lines, c=core.core_id: parks.append(
                (c, cycle, period)
            )
        )
    result = system.run()
    assert result.fastforward["parks"] == len(parks) > 0
    for core_id, cycle, period in parks:
        assert cycle == anchors[core_id] + period


def test_delivery_blocked_attempt_retries_when_it_lands(monkeypatch):
    retries = []
    original = SpinFastForward.abort

    def abort(engine) -> None:
        blocked = engine._retry_at
        now = engine.queue.now
        in_flight = {
            due
            for due, _order, _cb, arg in engine.queue.iter_ring()
            if engine._targets_core(arg)
        }
        original(engine)
        if blocked is not None:
            retries.append((now, blocked, in_flight, engine._next_try_cycle))

    monkeypatch.setattr(SpinFastForward, "abort", abort)
    system = System(
        _as_workload(),
        policy=FREE_ATOMICS_FWD,
        config=icelake_config(num_cores=4),
    )
    system.run()
    assert retries, "no attempt was blocked by a delivery: dead test"
    for now, blocked, in_flight, next_try in retries:
        assert blocked in in_flight
        assert next_try == blocked
        assert now <= blocked < now + COOLDOWN_CYCLES


def test_repark_over_spliced_entries_matches_engine_off(monkeypatch):
    spliced_parks = []
    original = SpinFastForward._park

    def park(engine, now, plan) -> None:
        spliced = engine.queue._spliced_posts
        if any(order in spliced for _due, order, *_rest in plan):
            spliced_parks.append(now)
        original(engine, now, plan)

    monkeypatch.setattr(SpinFastForward, "_park", park)
    workload = _as_workload()
    config = icelake_config(num_cores=4)
    fast = System(workload, policy=FREE_ATOMICS_FWD, config=config).run()
    assert spliced_parks, "no re-park over spliced entries: dead test"
    monkeypatch.setenv("REPRO_NO_SPINFF", "1")
    reference = System(workload, policy=FREE_ATOMICS_FWD, config=config).run()
    assert reference.fastforward["parks"] == 0
    assert (
        fast.summary().canonical_json()
        == reference.summary().canonical_json()
    )
