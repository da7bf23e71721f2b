"""Tests for sampled-window scheduling, execution, and extrapolation."""

import json

import pytest

from repro.harness.executor import RunFailure, RunOutcome
from repro.sampling import windows as windows_module
from repro.sampling.validate import validate_cell
from repro.sampling.windows import (
    place_windows,
    run_sampled,
    write_report,
)


class TestPlacement:
    def test_even_is_endpoint_inclusive(self):
        positions = place_windows(10_000, windows=5, measure=1000)
        assert positions[0] == 0
        assert positions[-1] == 9000  # last segment ends at the halt
        assert positions == sorted(set(positions))

    def test_single_window_measures_the_start(self):
        assert place_windows(10_000, windows=1, measure=1000) == [0]

    def test_short_program_collapses_windows(self):
        # measure exceeds the program, so the span degenerates and the
        # requested windows dedup down to the start.
        positions = place_windows(500, windows=4, measure=1000)
        assert len(positions) < 4
        assert positions[0] == 0

    def test_random_is_seed_deterministic(self):
        a = place_windows(1_000_000, 8, 1000, placement="random", seed=7)
        b = place_windows(1_000_000, 8, 1000, placement="random", seed=7)
        c = place_windows(1_000_000, 8, 1000, placement="random", seed=8)
        assert a == b
        assert a != c

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            place_windows(10_000, windows=0, measure=1000)
        with pytest.raises(ValueError):
            place_windows(10_000, windows=4, measure=1000,
                          placement="clustered")


class TestRunSampled:
    def test_report_shape_and_estimates(self, tmp_path):
        report = run_sampled(
            "bfs", mode="tea", scale="tiny",
            windows=3, warmup=500, measure=1000,
            workdir=tmp_path,
        )
        assert report["kind"] == "sampled"
        assert report["functional"]["total_instructions"] > 0
        assert 1 <= len(report["windows"]) <= 3
        est = report["estimates"]
        assert est["ipc"]["value"] > 0
        assert est["mpki"]["value"] > 0
        if len(report["windows"]) >= 2:
            assert est["ipc"]["ci95"] is not None
        assert est["tea_accuracy"]["value"] is not None

    def test_single_window_has_no_ci(self, tmp_path):
        report = run_sampled(
            "sssp", mode="baseline", scale="tiny",
            windows=1, warmup=500, measure=1000,
            workdir=tmp_path,
        )
        assert len(report["windows"]) == 1
        assert report["estimates"]["ipc"]["ci95"] is None

    def test_parallel_report_is_byte_identical_to_serial(self, tmp_path):
        kwargs = dict(
            mode="tea", scale="tiny",
            windows=3, warmup=500, measure=1000, seed=0,
        )
        serial = run_sampled("bfs", jobs=0,
                             workdir=tmp_path / "serial", **kwargs)
        parallel = run_sampled("bfs", jobs=2,
                               workdir=tmp_path / "parallel", **kwargs)
        a = write_report(serial, tmp_path / "serial.json")
        b = write_report(parallel, tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()

    def test_window_files_are_self_contained(self, tmp_path):
        run_sampled(
            "bfs", mode="tea", scale="tiny",
            windows=2, warmup=500, measure=1000,
            workdir=tmp_path,
        )
        files = sorted(tmp_path.glob("window-*.json"))
        assert files
        window = json.loads(files[0].read_text())
        assert window["schema"] == 1
        assert window["measure"] == 1000
        assert window["checkpoint"]["workload"] == "bfs"


class TestFailedWindows:
    """A failed window's error names why it failed, not just that it did."""

    def test_exception_kind_class_and_message_are_reported(
        self, tmp_path, monkeypatch
    ):
        def broken_window(spec):
            raise TypeError("unsupported operand type(s) for <<")

        monkeypatch.setattr(windows_module, "execute_window", broken_window)
        with pytest.raises(RuntimeError) as info:
            run_sampled(
                "bfs", mode="tea", scale="tiny",
                windows=1, warmup=500, measure=1000, workdir=tmp_path,
            )
        message = str(info.value)
        assert "window-000.json/tea: failed (fatal TypeError: " in message
        assert "unsupported operand type(s) for <<" in message

    def test_timeouts_are_reported_with_their_limit(
        self, tmp_path, monkeypatch
    ):
        class TimingOutExecutor:
            def __init__(self, **kwargs):
                self.timeout = kwargs["timeout"]

            def run(self, specs):
                failure = RunFailure(
                    kind="timeout",
                    exception="RunTimeout",
                    message=f"exceeded {self.timeout}s wall-clock limit",
                    traceback="",
                    config_digest="",
                    seed=0,
                )
                return [
                    RunOutcome(spec=spec, status="timeout", failure=failure)
                    for spec in specs
                ]

        monkeypatch.setattr(windows_module, "CampaignExecutor", TimingOutExecutor)
        with pytest.raises(RuntimeError) as info:
            run_sampled(
                "bfs", mode="tea", scale="tiny", timeout=5.0,
                windows=1, warmup=500, measure=1000, workdir=tmp_path,
            )
        assert (
            "window-000.json/tea: timeout "
            "(timeout RunTimeout: exceeded 5.0s wall-clock limit)"
        ) in str(info.value)


class TestValidation:
    def test_pinned_cell_is_inside_tolerance(self):
        """The acceptance gate, on one cell: sampled tracks full."""
        row = validate_cell("bfs", "tea", scale="tiny")
        assert row["full"]["instructions"] > 0
        assert row["ipc_ok"], row
        assert row["mpki_ok"], row
        assert row["sampled"]["ipc_ci95"] is not None
