"""Golden event streams: the observers' output pinned byte for byte.

These digests hold the instrumentation to an oracle that survives any
refactor of how events reach the tools: the Chrome trace of the
default ``python -m repro.analysis --trace-out`` run, the
:class:`~repro.system.trace.PipelineTracer` timeline and event rows of
one fixed single-core ``fetch_add`` program, and the whole event ring
of a watchdog-heavy RMW-RMW run (squash causes, watchdog arm/fire,
deferrals and AQ lock holds, in emission order).  A change that moves,
drops or adds an event, or changes its payload, changes a digest here.
A deliberate change re-records them and says so.
"""

import hashlib

import pytest

from repro.analysis.cli import main
from repro.core.policy import FREE_ATOMICS, FREE_ATOMICS_FWD
from repro.isa.builder import ProgramBuilder
from repro.obs import Observability
from repro.system.simulator import System, run_workload
from repro.system.trace import PipelineTracer
from repro.workloads.base import Workload
from tests.conftest import small_system_config
from tests.integration.test_deadlocks import rmw_rmw_workload

#: sha256 of the default ``--trace-out`` Chrome JSON (atomic_increment,
#: 4 threads, free+fwd, every category, audits every 64 cycles).
TRACE_OUT_SHA256 = (
    "5d83f87d1314976b488d1b03cb1706ca441c8ff8d92ba840eefb8003e2da3b28"
)

#: sha256 of the fixed program's tracer rows, one ``str(event)`` a line.
TRACER_EVENTS_SHA256 = (
    "ba0452b1ad1a65002ce1e59289d92f2b7f588fa4f1f78c7281df443b6f39e70c"
)

#: sha256 of the RMW-RMW run's ring rows, one event tuple a line.
RMW_RING_SHA256 = (
    "615d3b0f408946a21598a77a344c91e5714bd62c8fc830d3b593f36de994954a"
)

TIMELINE = """\
seq    0 pc   0 alu     | D@0 C@2
seq    1 pc   1 store   | D@0 C@2 W@31
seq    2 pc   2 atomic  | D@0 P@4 C@32 W@34
seq    3 pc   3 load    | D@0 P@6 C@32
seq    4 pc   4 alu     | D@0 C@32
seq    5 pc   5 alu     | D@1 C@32
seq    6 pc   6 atomic  | D@1 P@6 C@35 W@37
seq    7 pc   7 branch  | D@1 C@35
seq    8 pc   5 alu     | D@1 C@35
seq    9 pc   6 atomic  | D@1 P@8 C@38 W@40
seq   10 pc   7 branch  | D@2 C@38
seq   11 pc   5 alu     | D@2 C@38
seq   12 pc   6 atomic  | D@2 P@10 C@41 W@43
seq   13 pc   7 branch  | D@2 C@41
seq   14 pc   5 alu     | D@2 X@5
seq   15 pc   8 alu     | D@17 C@41
seq   16 pc   9 load    | D@17 P@48 C@49
seq   17 pc  10 atomic  | D@35 P@65 C@66 W@68
seq   18 pc  11 halt    | D@35 C@69"""


@pytest.fixture(autouse=True, params=["fast", "nofastpath"])
def _leg(request, monkeypatch):
    """Both simulator legs emit the same stream."""
    monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)
    if request.param == "fast":
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")


def test_trace_out_chrome_json_digest(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["--trace-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_OUT_SHA256


def _fetch_add_program() -> ProgramBuilder:
    """A store, a forwarded fetch_add and load, a mispredicting loop of
    fetch_adds, then a cache load and a locking fetch_add: every tracer
    event kind appears."""
    builder = ProgramBuilder()
    builder.li(1, 0x1000)
    builder.store(imm=5, base=1)
    builder.fetch_add(dst=2, base=1, imm=1)
    builder.load(3, base=1)
    builder.li(4, 0)
    builder.label("loop")
    builder.addi(4, 4, 1)
    builder.fetch_add(dst=5, base=1, imm=2)
    builder.branch_lt(4, 3, "loop")
    builder.li(6, 0x2000)
    builder.load(7, base=6)
    builder.fetch_add(dst=8, base=6, imm=3, offset=64)
    return builder


def test_fetch_add_timeline_and_events():
    workload = Workload("golden", [_fetch_add_program().build()])
    system = System(
        workload, policy=FREE_ATOMICS_FWD, config=small_system_config(1)
    )
    tracer = PipelineTracer().attach(system.cores[0])
    result = system.run()
    assert result.read_word(0x1000) == 12
    assert tracer.timeline(0) == TIMELINE
    rows = "\n".join(str(event) for event in tracer.events)
    assert hashlib.sha256(rows.encode()).hexdigest() == TRACER_EVENTS_SHA256


def test_rmw_rmw_event_ring_digest():
    workload, _ = rmw_rmw_workload(iterations=10)
    obs = Observability()
    run_workload(
        workload,
        policy=FREE_ATOMICS,
        config=small_system_config(2, watchdog_cycles=400),
        observability=obs,
    )
    assert obs.bus.dropped == 0
    assert obs.bus.counts["watchdog/fire"] == 20
    rows = "\n".join(
        repr((e.cycle, e.cat, e.kind, e.src, e.seq, e.dur, e.info))
        for e in obs.bus
    )
    assert hashlib.sha256(rows.encode()).hexdigest() == RMW_RING_SHA256
