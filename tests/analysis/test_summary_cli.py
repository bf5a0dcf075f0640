"""Tests for headline metrics, energy reporting, and the CLI."""

import json

import pytest

from repro.analysis.cli import build_parser, main
from repro.analysis.runner import ExperimentScale, clear_cache
from repro.analysis.summary import (
    PAPER_HEADLINES,
    HeadlineMetrics,
    headline_metrics,
)
from repro.core.policy import ALL_POLICIES
from repro.energy.model import EnergyModel
from repro.energy.report import component_rows, policy_comparison_rows
from repro.system.simulator import run_workload
from tests.conftest import counter_workload, small_system_config

SCALE = ExperimentScale(num_threads=2, instructions_per_thread=400)
SUBSET = ["AS", "canneal"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield


class TestHeadline:
    def test_metrics_computed(self):
        metrics = headline_metrics(SCALE, benchmarks=SUBSET)
        rows = metrics.as_rows()
        assert {row["metric"] for row in rows} == set(PAPER_HEADLINES)
        for row in rows:
            assert isinstance(row["measured"], float)

    def test_shape_holds_predicate(self):
        good = HeadlineMetrics(10.0, 20.0, 8.0, 15.0)
        assert good.shape_holds
        bad = HeadlineMetrics(10.0, 5.0, 8.0, 15.0)  # AI lower than all
        assert not bad.shape_holds

    def test_precomputed_rows_short_circuit(self):
        fake_time = [
            {"benchmark": "average", "free+fwd": 0.9},
            {"benchmark": "average-AI", "free+fwd": 0.8},
        ]
        fake_energy = [
            {"benchmark": "average", "free+fwd": 0.95},
            {"benchmark": "average-AI", "free+fwd": 0.85},
        ]
        metrics = headline_metrics(
            SCALE, time_rows=fake_time, energy_rows=fake_energy
        )
        assert metrics.time_reduction_all_pct == pytest.approx(10.0)
        assert metrics.energy_reduction_ai_pct == pytest.approx(15.0)


class TestEnergyReport:
    def make_breakdowns(self):
        model = EnergyModel()
        workload = counter_workload(2, 20)
        config = small_system_config(2)
        return {
            policy.name: model.breakdown(
                run_workload(workload, policy=policy, config=config)
            )
            for policy in ALL_POLICIES
        }

    def test_component_rows_sum_to_total(self):
        breakdown = self.make_breakdowns()["baseline"]
        rows = component_rows(breakdown)
        assert rows[-1]["component"] == "TOTAL"
        parts = sum(
            row["energy_pj"] for row in rows if row["component"] != "TOTAL"
        )
        assert parts == pytest.approx(breakdown.total_pj)

    def test_policy_comparison_normalizes_baseline_to_one(self):
        rows = policy_comparison_rows(self.make_breakdowns())
        base = next(row for row in rows if row["policy"] == "baseline")
        assert base["normalized_total"] == pytest.approx(1.0)
        assert base["savings_pct"] == pytest.approx(0.0)


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure12", "--threads", "2"])
        assert args.experiment == "figure12"
        assert args.threads == 2

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "ROB / LQ / SQ" in out

    def test_figure12_with_subset_and_json(self, tmp_path, capsys):
        code = main(
            [
                "figure12",
                "--threads", "2",
                "--instrs", "400",
                "--benchmarks", "AS", "canneal",
                "--json-dir", str(tmp_path),
            ]
        )
        assert code == 0
        saved = json.loads((tmp_path / "figure12.json").read_text())
        assert {row["benchmark"] for row in saved} == {"AS", "canneal"}
        assert "Figure 12" in capsys.readouterr().out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(["figure12", "--jobs", "4"])
        assert args.jobs == 4

    def test_clear_cache_standalone(self, capsys):
        assert main(["--clear-cache"]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_profile_out_dumps_raw_pstats(self, tmp_path, monkeypatch, capsys):
        import pstats

        # --profile turns the disk cache off for the process; restore it.
        monkeypatch.delenv("REPRO_CACHE", raising=False)

        out = tmp_path / "hot" / "profile.pstats"
        code = main(
            [
                "--profile",
                "--profile-out", str(out),
                "--threads", "2",
                "--instrs", "120",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "cumulative" in printed  # table sorted by cumulative time
        assert str(out) in printed
        # The dump must round-trip through pstats without re-running.
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_profile_out_requires_profile(self):
        with pytest.raises(SystemExit):
            main(["--profile-out", "x.pstats"])

    def test_no_experiment_without_clear_cache_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parallel_jobs_flag_runs(self, capsys):
        code = main(
            [
                "figure12",
                "--threads", "2",
                "--instrs", "400",
                "--benchmarks", "AS", "canneal",
                "--jobs", "2",
            ]
        )
        assert code == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_warm_parallel_run_reports_only_disk_hits(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.analysis import engine

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        argv = [
            "figure12",
            "--threads", "2",
            "--instrs", "400",
            "--benchmarks", "AS", "canneal",
            "--jobs", "2",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[simulated 2 point(s) with 2 worker(s), 0 disk-cache hit(s)]" in cold

        clear_cache()

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm run built a worker pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[simulated 0 point(s) with 0 worker(s), 2 disk-cache hit(s)]" in warm
        assert warm.split("\n", 1)[1] == cold.split("\n", 1)[1]


class TestTraceOut:
    def test_traced_litmus_writes_valid_chrome_json(self, tmp_path, capsys):
        from repro.obs import validate_trace

        out = tmp_path / "nested" / "trace.json"
        assert main(["--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0 violation(s)" in printed and str(out) in printed
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"pipeline:commit", "aq:lock", "aq:unlock", "watchdog:arm"} <= names
        assert payload["otherData"]["health"]["audits"]["runs"] > 0

    def test_trace_litmus_selects_program(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["--trace-out", str(out), "--trace-litmus", "store_buffering"]
        )
        assert code == 0
        assert "litmus=store_buffering" in capsys.readouterr().out

    def test_unknown_litmus_rejected(self, tmp_path, capsys):
        code = main(
            ["--trace-out", str(tmp_path / "t.json"), "--trace-litmus", "nope"]
        )
        assert code == 2
        assert "available:" in capsys.readouterr().out
