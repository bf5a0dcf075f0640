"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing  # noqa: E402
from perfbench.suite import Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload's kind at a scale that runs in about a second.
TINY = {
    "sweep_cold": Workload(
        "sweep_cold",
        "sweep",
        threads=2,
        benchmarks=("AS", "canneal"),
        traced_benchmarks=("AS",),
    ),
    "paper32": Workload(
        "paper32",
        "paper",
        threads=4,
        benchmarks=("AS", "canneal"),
        points=(("canneal", "baseline"), ("canneal", "free+fwd")),
        min_passes=2,
    ),
    "replay_warm": Workload(
        "replay_warm",
        "replay",
        threads=2,
        benchmarks=("AS", "canneal"),
        setup_repeats=1,
    ),
    "paper32_observed": Workload(
        "paper32_observed",
        "paper",
        threads=4,
        benchmarks=("AS", "canneal"),
        points=(("canneal", "free+fwd"),),
        observed=True,
        min_passes=2,
    ),
}

#: Per-layer metrics that must repeat exactly between traced runs.
EXACT = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith(".calls")
    or m["name"] == "profile.calls_total"
    or m["name"]
    in (
        "system.sim_cycles",
        "uarch.committed",
        "uarch.dispatched",
        "uarch.squashes",
        "uarch.spinff.parks",
        "uarch.spinff.spin_cycles_skipped",
        "common.events.time_warp_jumps",
        "core.fences_executed",
        "core.fences_omitted",
        "mem.messages",
        "mem.l3_misses",
        "obs.events_emitted",
    )
]


def test_every_workload_has_a_tiny_twin():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result = run.run(TINY[name], seed=3, seconds=0.5, trace=trace, out=tmp_path)
    printed = capsys.readouterr().out
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in printed.splitlines()
        ), metric["name"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((tmp_path / f"{name}-seed3-trace{int(trace)}.json").read_text())
    assert record["identity"]["seed"] == 3
    assert record["identity"]["scale"]["seed"] == 3
    if trace and name != "replay_warm":
        assert {"name", "start", "end", "parent", "trace_id"} <= set(record["spans"][0])


def test_injected_failing_point_raises_fail_ratio(tmp_path):
    tiny = TINY["paper32"]
    failing = dataclasses.replace(
        tiny, points=tiny.points + (("no-such-profile", "baseline"),)
    )
    result = run.run(failing, seed=3, seconds=0.1, trace=False, out=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    record = json.loads((tmp_path / "paper32-seed3-trace0.json").read_text())
    assert record["fail_ratio"] > 0


def test_a_run_that_repeats_differently_is_not_correct(tmp_path):
    tiny = TINY["paper32"]
    first = run.run(tiny, seed=3, seconds=0, trace=False, out=tmp_path)
    assert first["correct"]
    (shas,) = tmp_path.glob("summary-shas-*.json")
    kept = json.loads(shas.read_text())
    shas.write_text(json.dumps({key: "0" * 64 for key in kept}))
    second = run.run(tiny, seed=3, seconds=0, trace=False, out=tmp_path)
    assert not second["correct"]


def test_traced_counts_repeat_exactly(tmp_path):
    runs = [
        run.run(TINY["paper32"], seed=5, seconds=0, trace=True, out=tmp_path)
        for _ in range(2)
    ]
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
    assert first == second
    assert first["profile.calls_total"] > 0


def test_missing_module_reads_as_zero():
    assert tracing.module_of("/x/src/repro/uarch/core.py") == "uarch.core"
    assert tracing.module_of("/x/src/repro/obs/bus.py") == "obs"
    assert tracing.module_of("~") == "builtins"
    assert tracing.module_of("/usr/lib/python3/json/__init__.py") is None
    metrics = tracing.profile_metrics(None)
    assert metrics["uarch.spinff.calls"] == 0
    assert metrics["uarch.spinff.self_s"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
