"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "bfs"])
        assert args.mode == "baseline"
        assert args.scale == "tiny"

    def test_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bfs", "--mode", "bogus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "mcf" in out
        assert "tea_dedicated" in out

    def test_run(self, capsys):
        assert main(["run", "xz", "--mode", "tea", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "coverage" in out
        assert "validated         True" in out

    def test_compare(self, capsys):
        code = main(["compare", "xz", "--modes", "baseline,tea"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "tea" in out
        assert "speedup" in out

    def test_figure(self, capsys):
        code = main(["figure", "fig6", "--workloads", "xz", "--scale", "tiny"])
        assert code == 0
        assert "MPKI" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99", "--workloads", "xz"]) == 2


class TestLintCommand:
    def test_lint_all_clean(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "17 program(s) linted: 0 error(s), 0 warning(s)" in out

    def test_lint_named_workloads(self, capsys):
        assert main(["lint", "bfs,xz"]) == 0
        assert "2 program(s) linted" in capsys.readouterr().out

    def test_lint_bad_source_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("add r2, r1, r7\nhalt\n")
        assert main(["lint", "--source", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "undefined-read" in out

    def test_lint_source_with_data_section(self, tmp_path, capsys):
        unit = tmp_path / "unit.s"
        unit.write_text(
            ".data\ntable: .word 1, 2, 3\n.text\n"
            "la r1, table\nld r2, 0(r1)\nst r2, 8(r1)\nhalt\n"
        )
        assert main(["lint", "--source", str(unit)]) == 0

    def test_lint_json_output(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.s"
        bad.write_text("add r2, r1, r7\nhalt\n")
        assert main(["lint", "--source", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        findings = payload[str(bad)]
        assert any(f["rule"] == "undefined-read" for f in findings)

    def test_lint_without_target_is_usage_error(self, capsys):
        assert main(["lint"]) == 2


class TestSliceCommand:
    def test_slice_table(self, capsys):
        assert main(["slice", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "conditional branches" in out

    def test_slice_json(self, capsys):
        import json

        assert main(["slice", "bfs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        for record in payload.values():
            assert record["size"] == len(record["pcs"])

    def test_slice_single_branch_filter(self, capsys):
        assert main(["slice", "bfs", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        pc = next(iter(payload))
        assert main(["slice", "bfs", "--branch", pc]) == 0
        assert pc in capsys.readouterr().out

    def test_slice_unknown_branch(self, capsys):
        assert main(["slice", "bfs", "--branch", "0xdead0"]) == 2

    def test_slice_oracle_writes_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "oracle.json"
        code = main([
            "slice", "xz", "--oracle", "--out", str(out_path),
        ])
        assert code == 0
        assert "H2P branches scored" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["summary"]["min_precision_direct"] >= 0.90


class TestChainsCommand:
    def test_chains_table(self, capsys):
        assert main(["chains", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "conditional branches" in out
        assert "chainable" in out

    def test_chains_json_and_mask_out(self, tmp_path, capsys):
        import json

        mask_path = tmp_path / "mask.json"
        assert main([
            "chains", "bfs", "--json", "--mask-out", str(mask_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        mask = json.loads(mask_path.read_text())
        assert mask["workload"] == "bfs"
        assert mask["branch_mask"] == payload["allow_mask"]

    def test_chains_oracle_writes_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "chains.json"
        code = main(["chains", "xz", "--oracle", "--out", str(out_path)])
        assert code == 0
        assert "soundness: 0 unsound" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["soundness"]["unsound_total"] == 0

    def test_chains_mask_requires_oracle(self, capsys):
        assert main(["chains", "bfs", "--mask"]) == 2

    def test_chains_mask_out_wants_one_workload(self, capsys):
        assert main([
            "chains", "bfs,mcf", "--mask-out", "/tmp/never.json",
        ]) == 2


class TestStatsEventsFile:
    """``repro stats --events``: clear errors, never tracebacks."""

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["stats", "--events", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "not found" in err

    def test_empty_file_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["stats", "--events", str(path)])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_partial_trailing_line_is_tolerated(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "flush", "cycle": 5}\n{"type": "fl')
        code = main(["stats", "--events", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 events" in captured.out
        assert "dropping partial trailing" in captured.err

    def test_interior_corruption_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('garbage\n{"type": "flush", "cycle": 5}\n')
        code = main(["stats", "--events", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "corrupt event record" in err
        assert "Traceback" not in err

    def test_events_summary_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "flush", "cycle": 5}\n'
            '{"type": "early_flush", "cycle": 9, "penalty": 3}\n'
        )
        code = main(["stats", "--events", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 2
        assert payload["by_type"] == {"flush": 1, "early_flush": 1}
        assert payload["last_cycle"] == 9

    def test_stats_without_workload_or_events(self, capsys):
        code = main(["stats"])
        assert code == 2
        assert "workload" in capsys.readouterr().err


class TestRunTelemetryFlags:
    def test_rollup_out_writes_campaign_rollup(self, tmp_path, capsys):
        import json

        path = tmp_path / "rollup.json"
        code = main([
            "run", "bfs", "--mode", "tea", "--scale", "tiny",
            "--jobs", "0", "--rollup-out", str(path),
        ])
        assert code == 0
        rollup = json.loads(path.read_text())
        assert rollup["cells"]["ok"] == 1
        assert rollup["by_cell"]["bfs/tea"]["status"] == "ok"
        assert rollup["events"]["emitted"]["branch_resolved"] > 0
        assert rollup["histograms"]["bfs"]["tea.lead_time"]["count"] > 0

    def test_follow_inline_prints_progress(self, tmp_path, capsys):
        code = main([
            "run", "bfs", "--mode", "tea", "--scale", "tiny",
            "--jobs", "0", "--follow",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "settled bfs/tea: ok, 1 attempt(s), " in out

    def test_single_run_output_flags_reject_a_campaign(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        stats = tmp_path / "s.json"
        code = main([
            "run", "xz,bfs", "--scale", "tiny",
            "--events-out", str(events), "--stats-out", str(stats),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--events-out" in err and "--stats-out" in err
        assert "--trace-out" not in err
        assert not events.exists() and not stats.exists()


class TestCountArguments:
    @pytest.mark.parametrize("argv", [
        ["sample", "xz", "--jobs", "-1"],
        ["fuzz", "--seeds", "1", "--jobs", "-1"],
        ["run", "xz,bfs", "--retries", "-1"],
        ["run", "xz,bfs", "--jobs", "-1"],
        ["figure", "fig5", "--jobs", "-1"],
        ["figure", "fig5", "--retries", "-2"],
    ])
    def test_negative_count_is_a_usage_error(self, argv, monkeypatch, capsys):
        import repro.fuzz
        import repro.sampling

        def simulate(*args, **kwargs):
            raise AssertionError("simulated despite a usage error")

        monkeypatch.setattr(repro.sampling, "run_sampled", simulate)
        monkeypatch.setattr(repro.fuzz, "run_fuzz_campaign", simulate)
        monkeypatch.setattr("repro.__main__.CampaignExecutor", simulate)
        monkeypatch.setattr("repro.__main__.ExperimentSuite", simulate)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err


class TestSample:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sample", "bfs"])
        assert args.mode == "tea"
        assert args.scale == "tiny"
        assert args.windows == 8
        assert args.warmup == 2000
        assert args.measure == 4000
        assert args.jobs == 0
        assert args.placement == "even"

    def test_requires_workload_or_validate(self, capsys):
        assert main(["sample"]) == 2
        assert "workload" in capsys.readouterr().err

    def test_sampled_run_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "sampled.json"
        code = main([
            "sample", "bfs", "--mode", "tea", "--scale", "tiny",
            "--windows", "3", "--warmup", "500", "--measure", "1000",
            "--out", str(out),
        ])
        assert code == 0
        assert "ipc" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["kind"] == "sampled"
        assert report["estimates"]["ipc"]["value"] > 0

    def test_validate_gate_passes_on_pinned_cells(self, capsys):
        code = main(["sample", "bfs", "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst error" in out
        assert "FAIL" not in out
