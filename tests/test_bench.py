"""Tests for the kernel throughput benchmark (`repro bench`)."""

import json

import pytest

from repro.__main__ import main
from repro.harness.bench import (
    PINNED_RUNS,
    _geomean,
    bench_cell,
    compare_reports,
    load_report,
    write_report,
)


class TestBenchHelpers:
    def test_geomean(self):
        assert _geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert _geomean([]) == 0.0

    def test_pinned_runs_are_fig5_matrix(self):
        workloads = {w for w, _ in PINNED_RUNS}
        modes = {m for _, m in PINNED_RUNS}
        assert workloads == {"bfs", "mcf", "xz"}
        assert modes == {"baseline", "tea"}

    def test_compare_reports_calibrated(self):
        current = {
            "calibrated_cycles_per_sec": 300.0,
            "geomean_cycles_per_sec": 30_000.0,
        }
        baseline = {
            "calibrated_cycles_per_sec": 200.0,
            "geomean_cycles_per_sec": 10_000.0,
        }
        cmp = compare_reports(current, baseline)
        assert cmp["speedup"] == pytest.approx(1.5)
        assert cmp["raw_speedup"] == pytest.approx(3.0)

    def test_report_roundtrip(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_report({"bench": "pipeline", "schema": 1}, path)
        assert load_report(path)["bench"] == "pipeline"

    def test_rewrite_keeps_the_trajectory(self, tmp_path):
        path = str(tmp_path / "report.json")
        trajectory = [{"change": "earlier", "geomeans": [1.0, 2.0]}]
        write_report({"bench": "pipeline", "trajectory": trajectory}, path)
        write_report({"bench": "pipeline", "schema": 1}, path)
        report = load_report(path)
        assert report["trajectory"] == trajectory
        assert report["schema"] == 1

    def test_load_rejects_foreign_report(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"bench": "other"}))
        with pytest.raises(ValueError):
            load_report(str(path))


class TestBenchCell:
    def test_cell_record_shape(self):
        cell = bench_cell("xz", "baseline", scale="tiny", repeat=1)
        assert cell["cycles"] > 0
        assert cell["cycles_per_sec"] > 0
        assert cell["uops_per_sec"] > 0
        assert cell["validated"] is True


class TestBenchCli:
    def test_check_smoke(self, capsys, tmp_path):
        out_path = str(tmp_path / "BENCH_pipeline.json")
        assert main(["bench", "--check", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out
        report = json.load(open(out_path))
        assert report["bench"] == "pipeline"
        assert len(report["runs"]) == 1
        assert report["runs"][0]["cycles_per_sec"] > 0
        assert report["host"]["calibration_mops"] > 0

    def test_compare_regression_gate(self, capsys, tmp_path):
        # A baseline claiming an absurdly fast calibrated number must
        # trip the >30% regression gate.
        baseline = {
            "bench": "pipeline",
            "schema": 1,
            "calibrated_cycles_per_sec": 1e9,
            "geomean_cycles_per_sec": 1e12,
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = main(
            ["bench", "--check", "--workloads", "xz", "--modes", "baseline",
             "--compare", str(path)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err


class TestFunctionalBench:
    def test_functional_section_records_speedup(self):
        from repro.harness.bench import functional_bench

        detailed = [bench_cell("bfs", "baseline", scale="tiny", repeat=1)]
        section = functional_bench(
            (("bfs", "baseline"),), scale="tiny", repeat=1,
            detailed_cells=detailed,
        )
        (row,) = section["rows"]
        assert row["workload"] == "bfs"
        assert row["instructions"] > 0
        assert row["functional_instr_per_sec"] > 0
        assert row["interpreter_instr_per_sec"] > 0
        # The tentpole acceptance floor: the functional engine must be
        # at least 50x the detailed kernel's instruction rate.
        assert row["speedup_vs_detailed"] >= 50
        assert section["geomean_speedup_vs_detailed"] >= 50
        assert "warmup tracking ON" in section["methodology"]

    def test_run_bench_embeds_functional_section(self):
        from repro.harness.bench import run_bench

        report = run_bench((("xz", "baseline"),), scale="tiny", repeat=1)
        assert report["functional"]["rows"]
        assert report["functional"]["rows"][0]["workload"] == "xz"
        assert report["sampling"]["rows"][0]["workload"] == "xz"


class TestSamplingBench:
    def test_sampling_section_records_one_pass_speedup(self):
        from repro.harness.bench import sampling_bench

        section = sampling_bench((("bfs", "tea"),), scale="tiny", repeat=1)
        (row,) = section["rows"]
        assert row["workload"] == "bfs"
        assert row["instructions"] > 0
        assert row["checkpoints"] > 0
        assert row["one_pass_wall_s"] > 0
        assert row["two_pass_wall_s"] > 0
        assert section["geomean_speedup"] > 0
        assert "checkpoints asserted identical" in section["methodology"]
