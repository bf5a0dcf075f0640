#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md headline numbers from results/*.json.

Run after `pytest benchmarks/ --benchmark-only` to keep the documented
measured values in sync with the archived rows.  Prints the fresh
numbers; edits EXPERIMENTS.md in place when --write is given.

With ``--regenerate`` the figure/table rows are recomputed first through
the parallel experiment engine (``--jobs N`` workers, disk-cache
backed) and re-archived into results/, so one command takes you from a
cold checkout to an up-to-date EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def regenerate(jobs: int | None) -> None:
    """Recompute the figure/table archives via the parallel engine."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.calibration import calibration_rows
    from repro.analysis.engine import disk_hits, harness_points, prefetch
    from repro.analysis.figures import (
        figure1_rows,
        figure12_rows,
        figure13_rows,
        figure14_rows,
        figure15_rows,
    )
    from repro.analysis.runner import ExperimentScale
    from repro.analysis.tables import table2_rows

    scale = ExperimentScale.from_env()
    points = harness_points(scale, include_ablations=False)
    hits = disk_hits(points)
    simulated = prefetch(points, jobs=jobs)
    print(
        f"[simulated {len(simulated)} point(s), "
        f"{len(hits)} disk-cache hit(s)]"
    )
    archives = {
        "calibration_schweizer": calibration_rows,
        "figure01_atomic_cost": figure1_rows,
        "figure12_apki": figure12_rows,
        "figure13_locality": figure13_rows,
        "figure14_performance": figure14_rows,
        "figure15_energy": figure15_rows,
        "table02_characterization": table2_rows,
    }
    RESULTS.mkdir(exist_ok=True)
    for name, compute in archives.items():
        rows = compute(scale)
        (RESULTS / f"{name}.json").write_text(
            json.dumps(rows, indent=2, default=str)
        )
        print(f"[archived results/{name}.json]")


def load(name: str) -> list[dict]:
    return json.loads((RESULTS / f"{name}.json").read_text())


def compute() -> dict[str, float]:
    fig14 = {row["benchmark"]: row for row in load("figure14_performance")}
    fig15 = {row["benchmark"]: row for row in load("figure15_energy")}
    fig1 = {row["benchmark"]: row for row in load("figure01_atomic_cost")}
    table2 = {row["benchmark"]: row for row in load("table02_characterization")}
    return {
        "time_all": 100.0 * (1 - fig14["average"]["free+fwd"]),
        "time_ai": 100.0 * (1 - fig14["average-AI"]["free+fwd"]),
        "energy_all": 100.0 * (1 - fig15["average"]["free+fwd"]),
        "energy_ai": 100.0 * (1 - fig15["average-AI"]["free+fwd"]),
        "free_all": fig14["average"]["free"],
        "free_ai": fig14["average-AI"]["free"],
        "fwd_all": fig14["average"]["free+fwd"],
        "fwd_ai": fig14["average-AI"]["free+fwd"],
        "spec_all": fig14["average"]["baseline+spec"],
        "spec_ai": fig14["average-AI"]["baseline+spec"],
        "fig1_sky": fig1["average"]["skylake_total"],
        "fig1_ice": fig1["average"]["icelake_total"],
        "fig1_sky_drain": fig1["average"]["skylake_drain_sb"],
        "fig1_ice_drain": fig1["average"]["icelake_drain_sb"],
        "omitted": table2["average"]["omitted_fences_pct"],
        "mdv": table2["average"]["mdv_pct_squashes"],
        "fba": table2["average"]["fba_pct_atomics"],
        "fbs": table2["average"]["fbs_pct_atomics"],
        "timeouts": table2["average"]["timeouts"],
        "as_fwd": fig14["AS"]["free+fwd"],
        "tpcc_fwd": fig14["TPCC"]["free+fwd"],
        "energy_all_norm": fig15["average"]["free+fwd"],
        "energy_ai_norm": fig15["average-AI"]["free+fwd"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="recompute results/*.json through the experiment engine first",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --regenerate (default REPRO_BENCH_JOBS)",
    )
    args = parser.parse_args()
    if args.regenerate:
        regenerate(args.jobs)
    values = compute()
    for key, value in values.items():
        print(f"{key:16s} {value:8.3f}")
    if not args.write:
        return 0
    text = EXPERIMENTS.read_text()
    replacements = {
        r"(exec-time reduction, all 26 workloads.*?\| 12\.5% \| )[\d.]+%"
        : rf"\g<1>{values['time_all']:.1f}%",
        r"(exec-time reduction, atomic-intensive.*?\| 25\.2% \| )[\d.]+%"
        : rf"\g<1>{values['time_ai']:.1f}%",
        r"(energy reduction, all workloads \| 11% \| )[\d.]+%"
        : rf"\g<1>{values['energy_all']:.1f}%",
        r"(energy reduction, AI \| 23% \| )[\d.]+%"
        : rf"\g<1>{values['energy_ai']:.1f}%",
    }
    for pattern, replacement in replacements.items():
        text, count = re.subn(pattern, replacement, text, count=1, flags=re.S)
        if not count:
            print(f"WARNING: pattern not found: {pattern[:50]}...")
    EXPERIMENTS.write_text(text)
    print("EXPERIMENTS.md headline updated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
