#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
run's record (workload identity, metrics, and for traced runs every
span) is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from perfbench import suite  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

OUT = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters that time the benchmark's imports, so the import
#: share of set-up time is a median too.
IMPORT_PROBES = 2


def import_seconds() -> float:
    """Median import time of this process and ``IMPORT_PROBES`` fresh ones."""
    code = (
        "import time; start = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
        "import perfbench.suite; print(time.perf_counter() - start)"
    )
    samples = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(outcome: suite.Outcome, spec_metrics: list[dict]) -> dict:
    metrics = {}
    for metric in spec_metrics:
        metrics[metric["name"]] = {
            "value": outcome.metrics[metric["name"]],
            "unit": metric["unit"],
        }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run(
    workload: suite.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out: pathlib.Path = OUT,
) -> dict:
    """Run one workload; print the human lines and return the JSON result."""
    spec = load_spec()
    workdir = suite.Workdir(out / f"work-{os.getpid()}")
    try:
        if trace:
            outcome = suite.run_traced(workload, seed, workdir)
        else:
            outcome = suite.run_timed(
                workload, seed, seconds, import_seconds(), workdir
            )
    finally:
        workdir.close()
    result = result_line(outcome, spec["per_layer" if trace else "end_to_end"])
    points = suite.harness(workload, suite.scale_for(workload.threads, seed))
    record = {
        "identity": suite.identity(workload, seed, points),
        "trace": trace,
        "samples": outcome.samples,
        "summary_sha": outcome.summary_sha,
        "fail_ratio": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "problems": outcome.problems,
        **outcome.notes,
        "result": result,
    }
    if trace:
        record["spans"] = outcome.spans
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}: {json.dumps(record['identity'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  {'fail_ratio':36s} {record['fail_ratio']:>16.6g} fraction "
        f"({outcome.failed}/{outcome.attempted} points)"
    )
    print(f"  samples {outcome.samples}  summary_sha {outcome.summary_sha}")
    for name, value in outcome.notes.items():
        print(f"  {name} {value}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(f"  record {path}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(
        suite.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
