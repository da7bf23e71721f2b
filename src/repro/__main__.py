"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      simulate workloads (one run, or a fault-tolerant campaign
             whose table compares each workload's modes: IPC, MPKI,
             speedup over its baseline; ``--follow`` prints each cell
             as it settles, ``--rollup-out`` writes the campaign's
             telemetry rollup)
``stats``    run with full telemetry and print the observability report
             (or summarize a saved ``--events`` JSONL dump)
``profile``  self-profile the cycle kernel: per-stage wall-clock
             attribution (``--gate`` checks the disabled path stays
             untouched and cycle-exact)
``report``   TEA paper metrics: timeliness / efficiency / accuracy per
             H2P branch and in aggregate
``list``     list workloads, scales, and machine modes
``figure``   regenerate one paper figure/table on a workload subset
``bench``    time the cycle kernel (plus the functional engine and
             interpreter rates) and write BENCH_pipeline.json
``sample``   sampled simulation: functional fast-forward to K sample
             points, parallel detailed windows, extrapolated metrics
             with confidence intervals (``--validate`` gates the
             sampled-vs-full error on the pinned matrix)
``lint``     statically lint workload programs (or an assembly file)
``chains``   static precomputation chains per branch (members, masks,
             classification, allow mask); ``--oracle`` judges every
             dynamic Backward Dataflow Walk against its static chain
``inject``   seeded microarchitectural fault-injection campaign
             (repro.verify); exit 1 if any TEA-side fault corrupts
             architectural state or a corruption lacks attribution
``fuzz``     seeded differential fuzzing campaign (repro.fuzz): random
             lint-clean programs, interpreter-vs-pipeline oracle,
             signature triage, delta-debugging shrinks, repro records;
             exit 1 on any unique failure

Examples::

    python -m repro list
    python -m repro lint --all
    python -m repro lint mcf,xz --scale tiny
    python -m repro lint --source examples/kernel.s
    python -m repro chains bfs --json
    python -m repro chains bfs,mcf,xz --oracle --out CHAINS_oracle.json
    python -m repro bench --out BENCH_pipeline.json
    python -m repro bench --check
    python -m repro bench --compare benchmarks/perf/baseline.json
    python -m repro sample bfs --mode tea --scale small --jobs 4
    python -m repro sample mcf --windows 8 --warmup 2000 --measure 4000
    python -m repro sample --validate
    python -m repro run bfs --mode tea --scale tiny
    python -m repro run bfs --mode tea --check-invariants 64
    python -m repro inject bfs,xz --kinds tea_outcome_flip,wakeup_drop \\
        --seeds 2 --out INJECT_report.json
    python -m repro run mcf --mode tea --trace-out trace.json
    python -m repro run bfs,mcf,xz --modes baseline,tea --jobs 4 \\
        --timeout 600 --checkpoint campaign.jsonl
    python -m repro run bfs,mcf,xz --modes baseline,tea --jobs 4 \\
        --checkpoint campaign.jsonl --resume
    python -m repro run bfs,mcf,xz --modes baseline,tea --jobs 4 \\
        --follow --rollup-out ROLLUP.json
    python -m repro stats mcf --mode tea --top 10
    python -m repro stats mcf --events events.jsonl
    python -m repro profile xz --mode tea --out PROFILE_xz.json
    python -m repro profile xz --mode tea --gate
    python -m repro report bfs,mcf,xz --mode tea --out TEA_report.json
    python -m repro run mcf --modes baseline,tea,runahead
    python -m repro figure fig8 --workloads bfs,mcf,xz --scale tiny
    python -m repro figure fig5 --scale tiny --jobs 4 --resume \\
        --checkpoint fig5.jsonl
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from functools import partial

from .harness import (
    CampaignExecutor,
    ExperimentSuite,
    FIGURE_MODES,
    MODES,
    RunSpec,
    campaign_rollup,
    run_workload,
    speedup_percent,
    summarize_outcomes,
)
from .harness.executor import execute_spec
from .obs import Observation
from .workloads import make_category, workload_names


def _cmd_list(_args) -> int:
    print("workloads (paper evaluation suite):")
    for name in workload_names():
        print(f"  {name:12s} [{make_category(name)} control flow]")
    print("\nscales: tiny, bench, full (+ small for bfs/cc/sssp/pr)")
    print("modes:  " + ", ".join(MODES))
    print("\nfigures: fig5 fig6 fig7 fig8 fig9 fig10 table3")
    return 0


def _print_stats(result) -> None:
    stats = result.stats
    print(f"  IPC               {stats.ipc:.3f}")
    print(f"  cycles            {stats.cycles}")
    print(f"  instructions      {stats.retired_instructions}")
    print(f"  MPKI              {stats.mpki:.2f}")
    print(f"  flushes           {stats.flushes}")
    if stats.tea_resolved_branches:
        print(f"  early flushes     {stats.early_flushes}")
        print(f"  coverage          {100 * stats.coverage:.1f}%")
        print(f"  accuracy          {100 * stats.tea_accuracy:.2f}%")
        print(f"  avg cycles saved  {stats.avg_cycles_saved:.1f}")
    if stats.runahead_overrides:
        print(f"  BR overrides      {stats.runahead_overrides}"
              f" (wrong: {stats.runahead_wrong_overrides})")
    print(f"  validated         {result.validated}")


def _make_executor(args, observation=None, task=None) -> CampaignExecutor:
    return CampaignExecutor(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        task=task,
        observation=observation,
    )


def _run_campaign(executor, specs, args) -> tuple[list, bool]:
    """Run a ``repro run`` campaign; returns ``(outcomes, drained)``.

    With worker processes, SIGTERM drains instead of killing: nothing
    new launches, cells whose results are already in their pipes
    settle, and the rest are terminated unjournaled.  The previous
    handler is restored on return, because ``main`` also runs
    in-process.  Inline campaigns (``--jobs 0``) have no workers to
    orphan and keep SIGTERM's default action.
    """
    if executor.jobs == 0:
        return executor.run(
            specs, checkpoint=args.checkpoint, resume=args.resume
        ), False
    drain = threading.Event()
    executor.stop = drain.is_set
    previous = signal.signal(signal.SIGTERM, lambda *_: drain.set())
    try:
        outcomes = executor.run(
            specs, checkpoint=args.checkpoint, resume=args.resume
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    return outcomes, drain.is_set()


def _print_campaign(outcomes) -> None:
    summary = summarize_outcomes(outcomes)
    # Outcomes come in spec order, so a workload's first cell is its
    # first mode; speedup is over its baseline cell, else that one.
    base = {}
    for outcome in outcomes:
        workload = outcome.spec.workload
        if workload not in base or outcome.spec.mode == "baseline":
            base[workload] = outcome
    print(f"{'run':28s}{'status':>10s}{'IPC':>8s}{'MPKI':>8s}"
          f"{'speedup':>10s}{'att':>5s}{'res':>5s}")
    for outcome in outcomes:
        ipc = mpki = speedup = "-"
        if outcome.ok:
            stats = outcome.sim_stats()
            ipc, mpki = f"{stats.ipc:.3f}", f"{stats.mpki:.1f}"
            ref = base[outcome.spec.workload]
            if ref.ok:
                pct = speedup_percent(stats.ipc, ref.sim_stats().ipc)
                speedup = f"{pct:+.1f}%"
        resumed = "yes" if outcome.resumed else ""
        print(
            f"{outcome.key:28s}{outcome.status:>10s}{ipc:>8s}{mpki:>8s}"
            f"{speedup:>10s}{outcome.attempts:>5d}{resumed:>5s}"
        )
    print(
        f"\n{summary['ok']}/{summary['total']} ok, "
        f"{summary['failed']} failed, {summary['timeout']} timed out, "
        f"{summary['resumed']} resumed from checkpoint, "
        f"{summary['retried']} needed retries"
    )
    for key, kind in summary["failed_cells"].items():
        print(f"  FAILED({kind}): {key}")


def _print_settled(event) -> None:
    """``--follow``: one line per cell as it settles (a bus callback
    for the executor's ``run_finished``/``run_failed`` events)."""
    data = event.data
    print(
        f"settled {data['workload']}/{data['mode']}: "
        f"{data.get('status', 'ok')}, {data['attempts']} attempt(s), "
        f"{data['seconds']:.2f}s",
        flush=True,
    )


def _cmd_run(args) -> int:
    workloads = args.workload.split(",")
    modes = args.modes.split(",") if args.modes else [args.mode]
    for mode in modes:
        if mode not in MODES:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    campaign = (
        len(workloads) > 1
        or len(modes) > 1
        or args.jobs != 1
        or args.checkpoint
        or args.resume
        or args.follow
        or args.rollup_out
    )
    if campaign:
        single_run_flags = [
            flag
            for flag, value in (
                ("--events-out", args.events_out),
                ("--trace-out", args.trace_out),
                ("--stats-out", args.stats_out),
            )
            if value
        ]
        if single_run_flags:
            print(
                f"{', '.join(single_run_flags)} record one in-process run, "
                f"not a campaign (several workloads or modes, --jobs other "
                f"than 1, --checkpoint, --resume, --follow, --rollup-out)",
                file=sys.stderr,
            )
            return 2
        if args.resume and not args.checkpoint:
            print("--resume requires --checkpoint PATH", file=sys.stderr)
            return 2
        specs = [
            RunSpec(
                workload=w,
                mode=m,
                scale=args.scale,
                check_invariants=args.check_invariants,
            )
            for w in workloads
            for m in modes
        ]
        observation = Observation()
        if args.follow:
            observation.bus.subscribe(
                _print_settled, ("run_finished", "run_failed")
            )
        task = partial(execute_spec, observe=True) if args.rollup_out else None
        executor = _make_executor(args, observation=observation, task=task)
        started = time.monotonic()
        outcomes, drained = _run_campaign(executor, specs, args)
        if args.rollup_out:
            rollup = campaign_rollup(
                specs, outcomes, time.monotonic() - started
            )
            with open(args.rollup_out, "w") as fh:
                json.dump(rollup, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote campaign rollup to {args.rollup_out}")
        _print_campaign(outcomes)
        if drained:
            # 128 + SIGTERM: an incomplete campaign still reads as a
            # failure to whoever sent the signal.
            print(f"{len(specs) - len(outcomes)} cell(s) unsettled; "
                  f"rerun with --resume")
            return 128 + signal.SIGTERM
        return 0 if all(o.ok for o in outcomes) else 1
    [mode] = modes
    observe = bool(args.events_out or args.trace_out or args.stats_out)
    result = run_workload(
        args.workload,
        mode,
        args.scale,
        observe=observe,
        check_invariants=args.check_invariants,
    )
    print(f"{args.workload} under {mode} ({args.scale} scale):")
    _print_stats(result)
    obs = result.observation
    if obs is not None:
        if args.events_out:
            count = obs.write_events_jsonl(args.events_out)
            print(f"  wrote {count} events to {args.events_out}")
        if args.trace_out:
            trace = obs.write_chrome_trace(args.trace_out)
            print(f"  wrote {len(trace['traceEvents'])} trace events to "
                  f"{args.trace_out} (open in ui.perfetto.dev)")
        if args.stats_out:
            obs.write_metrics_snapshot(args.stats_out, result.stats)
            print(f"  wrote metrics snapshot to {args.stats_out}")
    return 0


def _summarize_events_file(args) -> int:
    """``repro stats --events``: summarize a saved JSONL event dump.

    Fails with a clear one-line error — never a traceback — on a
    missing, empty, or interior-corrupt file; a partial *trailing* line
    (crash mid-append) is tolerated and dropped.
    """
    import os
    import warnings

    from .obs import read_events_jsonl

    path = args.events
    if not os.path.exists(path):
        print(f"stats: events file not found: {path}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = read_events_jsonl(path, tolerant=True)
    except ValueError as exc:
        print(f"stats: cannot read events file: {exc}", file=sys.stderr)
        return 1
    for warning in caught:
        print(f"stats: warning: {warning.message}", file=sys.stderr)
    if not records:
        print(f"stats: events file is empty: {path}", file=sys.stderr)
        return 1
    counts: dict[str, int] = {}
    for record in records:
        type_ = record.get("type", "?")
        counts[type_] = counts.get(type_, 0) + 1
    cycles = [r["cycle"] for r in records if "cycle" in r]
    if args.json:
        print(json.dumps(
            {
                "path": path,
                "events": len(records),
                "first_cycle": min(cycles) if cycles else None,
                "last_cycle": max(cycles) if cycles else None,
                "by_type": dict(sorted(counts.items())),
            },
            indent=2, sort_keys=True,
        ))
        return 0
    span = ""
    if cycles:
        span = f" over cycles {min(cycles)}..{max(cycles)}"
    print(f"{path}: {len(records)} events{span}")
    for type_, count in sorted(counts.items()):
        print(f"  {type_:20s} {count:8d}")
    return 0


def _cmd_stats(args) -> int:
    if args.events:
        return _summarize_events_file(args)
    if not args.workload:
        print("stats: give a workload name or --events PATH", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.mode, args.scale, observe=True)
    obs = result.observation
    if args.json:
        print(json.dumps(obs.metrics_snapshot(result.stats), indent=2,
                         sort_keys=True))
        return 0
    print(f"{args.workload} under {args.mode} ({args.scale} scale):")
    _print_stats(result)
    print("\nevent counts:")
    for type_, count in obs.event_type_counts().items():
        print(f"  {type_:20s} {count:8d}")
    snapshot = obs.metrics.snapshot()
    populated = {
        name: h for name, h in snapshot["histograms"].items() if h["count"]
    }
    if populated:
        print("\nhistograms:")
        for name, hist in populated.items():
            print(f"  {name}: n={hist['count']} mean={hist['mean']:.1f} "
                  f"min={hist['min']} max={hist['max']}")
    print()
    print(obs.attribution.report(args.top))
    return 0


def _cmd_profile(args) -> int:
    from .obs import validate_chrome_trace, write_metrics_snapshot

    result = run_workload(
        args.workload, args.mode, args.scale, profile=True
    )
    profiler = result.profiler
    report = profiler.report()
    print(f"{args.workload} under {args.mode} ({args.scale} scale): "
          f"{report['steps']} steps, {report['total_ns'] / 1e6:.1f} ms "
          f"in the step loop ({report['ns_per_step']:.0f} ns/step)")
    rows = sorted(report["buckets"].items(), key=lambda kv: -kv[1]["ns"])
    print(f"  {'bucket':18s}{'ms':>10s}{'%':>7s}{'calls':>12s}")
    for name, bucket in rows:
        print(f"  {name:18s}{bucket['ns'] / 1e6:10.2f}"
              f"{100 * bucket['frac']:6.1f}%{bucket['calls']:12d}")
    if args.out:
        write_metrics_snapshot(profiler.flat(), args.out)
        print(f"wrote profile snapshot to {args.out}")
    if args.trace_out:
        trace = profiler.to_chrome_trace()
        validate_chrome_trace(trace)
        with open(args.trace_out, "w") as fh:
            json.dump(trace, fh)
        print(f"wrote {len(trace['traceEvents'])} profiler trace events to "
              f"{args.trace_out} (open in ui.perfetto.dev)")
    if args.gate:
        # Overhead gate, two halves:
        # 1. cycle-exactness — a profiled run must report identical
        #    SimStats to an unprofiled one;
        # 2. structural zero cost — an unprofiled pipeline must keep
        #    its untouched class methods (no wrapper in __dict__).
        plain = run_workload(args.workload, args.mode, args.scale)
        if plain.stats.as_dict() != result.stats.as_dict():
            print("GATE FAIL: profiled run diverged from unprofiled stats",
                  file=sys.stderr)
            return 1
        from .core import Pipeline
        from .harness import make_config
        from .workloads import make_workload

        workload = make_workload(args.workload, args.scale)
        pipeline = Pipeline(
            workload.program, workload.fresh_memory(), make_config(args.mode)
        )
        pipeline.run(max_cycles=1000)
        shadowed = [
            attr for attr in ("step", "_retire", "_fetch", "_schedule")
            if attr in pipeline.__dict__
        ]
        if pipeline.profiler is not None or shadowed:
            print(f"GATE FAIL: unprofiled pipeline carries profiler "
                  f"wrappers: {shadowed}", file=sys.stderr)
            return 1
        print("gate: profiled run cycle-exact; disabled path untouched")
    return 0


def _cmd_report(args) -> int:
    from .obs import build_tea_report, render_tea_report

    workloads = args.workloads.split(",")
    reports: dict[str, dict] = {}
    for workload in workloads:
        print(f"simulating {workload}/{args.mode} ...", file=sys.stderr)
        result = run_workload(workload, args.mode, args.scale, observe=True)
        obs = result.observation
        reports[workload] = build_tea_report(
            result.stats,
            obs.attribution,
            obs.events,
            workload=workload,
            mode=args.mode,
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote TEA report to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for workload in workloads:
            print(render_tea_report(reports[workload], top=args.top))
            print()
    mismatched = [
        w for w, r in reports.items() if not r["reconciliation"]["exact"]
    ]
    for workload in mismatched:
        print(f"RECONCILIATION MISMATCH: {workload} attribution vs SimStats",
              file=sys.stderr)
    return 1 if mismatched else 0


def _cmd_figure(args) -> int:
    workloads = tuple(args.workloads.split(",")) if args.workloads else None
    executor = None
    if args.jobs != 1 or args.checkpoint or args.resume:
        if args.resume and not args.checkpoint:
            print("--resume requires --checkpoint PATH", file=sys.stderr)
            return 2
        executor = _make_executor(args, observation=Observation())
    suite = ExperimentSuite(
        scale=args.scale, workloads=workloads, executor=executor
    )
    if executor is not None and args.name in FIGURE_MODES:
        suite.run_matrix(
            FIGURE_MODES[args.name],
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    renderers = {
        "fig5": suite.render_fig5,
        "fig6": suite.render_fig6,
        "fig7": suite.render_fig7,
        "fig8": suite.render_fig8,
        "fig9": suite.render_fig9,
        "fig10": suite.render_fig10,
        "table3": suite.render_table3,
    }
    try:
        renderer = renderers[args.name]
    except KeyError:
        print(f"unknown figure {args.name!r}; one of {sorted(renderers)}",
              file=sys.stderr)
        return 2
    print(renderer())
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        PINNED_RUNS,
        compare_reports,
        load_report,
        run_bench,
        write_report,
    )

    if args.workloads or args.modes:
        workloads = (args.workloads or "bfs,mcf,xz").split(",")
        modes = (args.modes or "baseline,tea").split(",")
        runs = tuple((w, m) for w in workloads for m in modes)
    else:
        runs = PINNED_RUNS
    if args.check:
        # Smoke mode: one cell, one repetition -- proves the bench
        # path works without paying for the full matrix.
        runs = runs[:1]
        args.repeat = 1

    def progress(cell):
        print(
            f"  {cell['workload']:>8s}/{cell['mode']:<14s}"
            f"{cell['cycles_per_sec']:>12,.0f} cyc/s"
            f"{cell['uops_per_sec']:>14,.0f} uops/s"
            f"  ipc={cell['ipc']:.3f}",
            file=sys.stderr,
        )

    print(f"timing cycle kernel ({len(runs)} cells, "
          f"repeat={args.repeat}, scale={args.scale}) ...", file=sys.stderr)
    report = run_bench(runs, scale=args.scale, repeat=args.repeat,
                       progress=progress)
    print(f"geomean: {report['geomean_cycles_per_sec']:,.0f} cyc/s, "
          f"{report['geomean_uops_per_sec']:,.0f} uops/s "
          f"(calibrated {report['calibrated_cycles_per_sec']:,.1f}; host "
          f"{report['host']['calibration_mops']:.1f} Mops)")
    functional = report.get("functional") or {}
    for row in functional.get("rows", ()):
        speedup = row["speedup_vs_detailed"]
        print(
            f"  functional {row['workload']:>8s}"
            f"{row['functional_instr_per_sec']:>14,.0f} instr/s"
            f"  interp {row['interpreter_instr_per_sec']:>12,.0f}"
            + (f"  {speedup:,.0f}x detailed" if speedup else ""),
            file=sys.stderr,
        )
    if functional.get("geomean_speedup_vs_detailed"):
        print(
            f"functional engine: "
            f"{functional['geomean_functional_instr_per_sec']:,.0f} instr/s "
            f"geomean, {functional['geomean_speedup_vs_detailed']:,.0f}x "
            f"the detailed kernel"
        )
    sampling = report.get("sampling") or {}
    if sampling.get("geomean_speedup"):
        print(
            f"sampling fast-forward: one-pass capture "
            f"{sampling['geomean_speedup']:.2f}x the two-pass pipeline"
        )
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.compare:
        baseline = load_report(args.compare)
        cmp = compare_reports(report, baseline)
        print(
            f"vs {args.compare}: {cmp['speedup']:.2f}x calibrated "
            f"({cmp['current']:,.1f} vs {cmp['baseline']:,.1f}), "
            f"{cmp['raw_speedup']:.2f}x raw"
        )
        floor = 1.0 - args.tolerance
        if cmp["speedup"] < floor:
            print(
                f"FAIL: calibrated throughput regressed more than "
                f"{args.tolerance:.0%} vs baseline", file=sys.stderr
            )
            return 1
    return 0


def _cmd_sample(args) -> int:
    from .sampling import run_sampled, validate_sampling, write_report

    if args.validate:
        # Pinned matrix (bfs/mcf/xz x baseline/tea), pinned knobs; a
        # single workload narrows it to that workload's cells.
        from .sampling.validate import PINNED_RUNS

        cells = PINNED_RUNS
        if args.workload:
            cells = tuple(
                (w, m) for w, m in PINNED_RUNS if w == args.workload
            ) or tuple((args.workload, m) for m in ("baseline", "tea"))
        print(f"validating sampled vs full detailed runs "
              f"({len(cells)} cells) ...", file=sys.stderr)
        report = validate_sampling(
            cells=cells,
            scale=args.scale,
            jobs=args.jobs,
            seed=args.seed,
        )
        for cell in report["cells"]:
            flag = "ok" if cell["ipc_ok"] and cell["mpki_ok"] else "FAIL"
            print(
                f"  {cell['workload']:>8s}/{cell['mode']:<9s}"
                f" ipc {cell['sampled']['ipc']:.4f} vs "
                f"{cell['full']['ipc']:.4f} "
                f"({cell['ipc_rel_error']:.1%})"
                f"  mpki {cell['sampled']['mpki']:.2f} vs "
                f"{cell['full']['mpki']:.2f} "
                f"({cell['mpki_rel_error']:.1%})  {flag}"
            )
        summary = report["summary"]
        print(
            f"worst error: ipc {summary['worst_ipc_rel_error']:.1%}, "
            f"mpki {summary['worst_mpki_rel_error']:.1%} "
            f"({summary['cells']} cells)"
        )
        if args.out:
            write_report(report, args.out)
            print(f"wrote {args.out}")
        if not report["ok"]:
            print("FAIL: sampled estimates outside tolerance",
                  file=sys.stderr)
            return 1
        return 0

    if not args.workload:
        print("error: sample requires a workload (or --validate)",
              file=sys.stderr)
        return 2
    report = run_sampled(
        args.workload,
        mode=args.mode,
        scale=args.scale,
        windows=args.windows,
        warmup=args.warmup,
        measure=args.measure,
        jobs=args.jobs,
        seed=args.seed,
        placement=args.placement,
    )
    est = report["estimates"]
    total = report["functional"]["total_instructions"]
    captured = report["functional"]["captured"]
    measured = sum(w["instructions"] for w in report["windows"])
    print(
        f"{args.workload}/{args.mode} @ {args.scale}: "
        f"{captured} windows over {total:,} instructions "
        f"({measured / total:.1%} measured in detail)"
    )

    def fmt(name: str) -> str:
        metric = est[name]
        value = metric["value"]
        if value is None:
            return f"{name} n/a"
        ci = metric.get("ci95")
        tail = f" +/- {ci:.4f}" if ci is not None else ""
        return f"{name} {value:.4f}{tail}"

    print("  " + "  ".join(
        fmt(name) for name in ("ipc", "mpki", "tea_accuracy", "tea_coverage")
    ))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint_program
    from .workloads import lint_workload, workload_names

    reports = {}
    if args.source:
        from .isa.data_directives import assemble_unit

        with open(args.source) as fh:
            source = fh.read()
        reports[args.source] = lint_program(assemble_unit(source).program)
    elif args.all:
        from .workloads import fuzz_corpus_names, make_workload

        for name in workload_names():
            reports[name] = lint_workload(name, args.scale)
        # Minimized fuzz repro records are registry workloads too; the
        # shrinker tolerates warnings (dead stores) but never errors.
        for name in fuzz_corpus_names():
            reports[name] = lint_program(make_workload(name).program)
    elif args.workload:
        for name in args.workload.split(","):
            reports[name] = lint_workload(name, args.scale)
    else:
        print("lint: give a workload list, --all, or --source FILE",
              file=sys.stderr)
        return 2

    total_errors = total_warnings = 0
    if args.json:
        payload = {
            name: [
                {"rule": f.rule, "severity": f.severity, "pc": f.pc,
                 "line": f.line, "message": f.message}
                for f in report
            ]
            for name, report in reports.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        total_errors = sum(len(r.errors) for r in reports.values())
        return 1 if total_errors else 0
    for name, report in reports.items():
        for finding in report:
            print(finding.render(name))
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
    print(f"{len(reports)} program(s) linted: "
          f"{total_errors} error(s), {total_warnings} warning(s)")
    return 1 if total_errors else 0


def _cmd_chains(args) -> int:
    from .analysis.chains import (
        analyze_chains,
        build_chain_report,
        render_chain_report,
        run_chain_oracle,
    )
    from .harness import make_config
    from .workloads import make_workload

    # ``fuzz`` / ``fuzz/*`` folds every corpus repro record into the
    # static classification sweep (same expansion as ``repro inject``).
    expanded: list[str] = []
    for name in args.workload.split(","):
        if name in ("fuzz", "fuzz/*"):
            from .workloads import fuzz_corpus_names

            corpus = fuzz_corpus_names()
            if not corpus:
                print("fuzz corpus is empty; run `repro fuzz` first or "
                      "point REPRO_FUZZ_CORPUS at a record directory",
                      file=sys.stderr)
                return 2
            expanded.extend(corpus)
        else:
            expanded.append(name)

    if args.mask and not args.oracle:
        print("chains: --mask requires --oracle", file=sys.stderr)
        return 2
    if args.oracle and make_config(args.mode).tea is None:
        print(f"chains: --oracle observes the TEA thread; mode "
              f"{args.mode!r} has none", file=sys.stderr)
        return 2
    if args.mask_out and len(expanded) != 1:
        print("chains: --mask-out wants exactly one workload",
              file=sys.stderr)
        return 2

    reports: dict[str, dict] = {}
    unsound_total = 0
    for name in expanded:
        if args.oracle:
            report = run_chain_oracle(
                name, args.scale, args.mode, use_mask=args.mask
            )
            unsound_total += report["soundness"]["unsound_total"]
        else:
            chains = analyze_chains(
                make_workload(name, args.scale).program
            )
            report = build_chain_report(chains, workload=name)
        reports[name] = report

    payload = reports[expanded[0]] if len(expanded) == 1 else reports
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote chain report to {args.out}", file=sys.stderr)
    if args.mask_out:
        report = reports[expanded[0]]
        with open(args.mask_out, "w") as fh:
            json.dump(
                {
                    "workload": expanded[0],
                    "scale": args.scale,
                    "branch_mask": report["allow_mask"],
                },
                fh, indent=2, sort_keys=True,
            )
        print(f"wrote allow mask to {args.mask_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports.values():
            print(render_chain_report(report))
    return 1 if unsound_total else 0


def _cmd_inject(args) -> int:
    from .verify import FAULT_KINDS, run_fault_campaign

    # ``fuzz`` / ``fuzz/*`` folds every corpus repro record into the
    # matrix; individual ``fuzz/<stem>`` names pass through directly.
    expanded: list[str] = []
    for name in args.workloads.split(","):
        if name in ("fuzz", "fuzz/*"):
            from .workloads import fuzz_corpus_names

            corpus = fuzz_corpus_names()
            if not corpus:
                print("fuzz corpus is empty; run `repro fuzz` first or "
                      "point REPRO_FUZZ_CORPUS at a record directory",
                      file=sys.stderr)
                return 2
            expanded.extend(corpus)
        else:
            expanded.append(name)
    workloads = tuple(expanded)
    kinds = tuple(args.kinds.split(",")) if args.kinds else None
    if kinds:
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            print(f"unknown fault kind(s): {', '.join(unknown)}; "
                  f"choose from {', '.join(sorted(FAULT_KINDS))}",
                  file=sys.stderr)
            return 2

    def progress(cell):
        key = f"{cell['workload']}/{cell['kind']}/seed{cell['seed']}"
        print(f"  {key:40s} {cell['outcome']}", file=sys.stderr)

    n_kinds = len(kinds) if kinds else len(FAULT_KINDS)
    print(f"fault campaign: {len(workloads)} workload(s) x {n_kinds} "
          f"kind(s) x {args.seeds} seed(s), mode={args.mode}, "
          f"scale={args.scale} ...", file=sys.stderr)
    report = run_fault_campaign(
        workloads=workloads,
        kinds=kinds,
        seeds=args.seeds,
        mode=args.mode,
        scale=args.scale,
        check_invariants=args.check_invariants,
        max_cycles=args.max_cycles,
        start_cycle=args.start_cycle,
        progress=progress,
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote fault-campaign report to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        summary = report["summary"]
        print(f"{summary['total']} cells "
              f"({summary['applied']} with a fault applied): "
              f"{summary['detected_invariant']} invariant-detected, "
              f"{summary['detected_watchdog']} watchdog-detected, "
              f"{summary['benign']} benign, "
              f"{summary['corrupted']} corrupted, "
              f"{summary['not_applied']} not applied")
        for key in report["unsafe_corruptions"]:
            print(f"  UNSAFE (TEA/timing fault corrupted state): {key}")
        for key in report["unattributed_corruptions"]:
            print(f"  UNATTRIBUTED corruption (no fault context): {key}")
        for key in report["undetected_cells"]:
            print(f"  note: expected-detect fault ran benign: {key}")
        print("ok" if report["ok"] else "NOT OK")
    return 0 if report["ok"] else 1


def _cmd_fuzz(args) -> int:
    import dataclasses
    from pathlib import Path

    from .fuzz import GeneratorProfile, run_fuzz_campaign

    profile = GeneratorProfile()
    if args.knobs:
        overrides = {}
        fields = {f.name: f.type for f in dataclasses.fields(profile)}
        for pair in args.knobs.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                print(f"fuzz: unknown knob {key!r}; choose from "
                      f"{', '.join(sorted(fields))}", file=sys.stderr)
                return 2
            overrides[key] = (float(value) if "float" in str(fields[key])
                              else int(value))
        profile = dataclasses.replace(profile, **overrides)

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    corpus = Path(args.corpus) if args.corpus else None
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    print(f"fuzz campaign: {args.seeds} seed(s) from {args.seed_base}, "
          f"mode={args.mode}, jobs={args.jobs}, "
          f"shrink={'on' if args.shrink else 'off'}"
          + (f", seeded bug={args.seeded_bug}" if args.seeded_bug else "")
          + " ...", file=sys.stderr)
    report = run_fuzz_campaign(
        seeds,
        mode=args.mode,
        check_invariants=args.check_invariants,
        jobs=args.jobs,
        budget=args.budget,
        shrink=args.shrink,
        shrink_budget=args.shrink_budget,
        corpus_dir=corpus,
        profile=profile,
        bug=args.seeded_bug,
        checkpoint=checkpoint,
        resume=args.resume,
        max_cycles=args.max_cycles,
    )
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote fuzz report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        counts = report["counts"]
        print(f"{report['num_seeds']} seed(s): "
              + ", ".join(f"{counts[s]} {s}" for s in counts))
        for entry in report["unique_failures"]:
            shrunk = (f"shrunk to {entry['instructions']} instruction(s)"
                      if entry["shrunk"] else "not shrunk")
            record = (f", record {entry['record']}"
                      if entry["record"] else "")
            print(f"  {entry['signature']}: {len(entry['seeds'])} seed(s), "
                  f"representative {entry['representative']}, "
                  f"{shrunk}{record}")
        print("ok" if not report["num_unique_failures"]
              else f"NOT OK: {report['num_unique_failures']} "
                   f"unique failure(s)")
    return 1 if report["num_unique_failures"] else 0


def _count(text: str) -> int:
    """argparse type of ``--jobs``, ``--retries`` and
    ``--check-invariants``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TEA branch-precomputation reproduction (MICRO 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, scales, modes").set_defaults(
        func=_cmd_list
    )

    def add_executor_options(p) -> None:
        p.add_argument("--jobs", type=_count, default=1, metavar="N",
                       help="worker processes (0 = inline, no isolation)")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-run wall-clock limit; over-limit workers "
                            "are terminated and the cell marked timeout")
        p.add_argument("--retries", type=_count, default=2, metavar="N",
                       help="retry budget for retryable failures")
        p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="JSONL journal of completed runs")
        p.add_argument("--resume", action="store_true",
                       help="skip runs already in the checkpoint journal")

    p_run = sub.add_parser(
        "run", help="simulate workloads (a campaign when several)"
    )
    p_run.add_argument("workload",
                       help="workload name, or comma-separated list for a "
                            "fault-tolerant campaign")
    p_run.add_argument("--mode", default="baseline", choices=MODES)
    p_run.add_argument("--modes", default=None,
                       help="comma-separated machine modes (campaign matrix)")
    p_run.add_argument("--scale", default="tiny")
    p_run.add_argument("--events-out", default=None, metavar="PATH",
                       help="write the telemetry event stream as JSONL "
                            "(single run only)")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace_event JSON (Perfetto; "
                            "single run only)")
    p_run.add_argument("--stats-out", default=None, metavar="PATH",
                       help="write a flat JSON metrics snapshot "
                            "(single run only)")
    p_run.add_argument("--check-invariants", type=_count, default=0,
                       metavar="N",
                       help="audit machine invariants every N cycles "
                            "(0 = off; disables idle fast-forward)")
    p_run.add_argument("--follow", action="store_true",
                       help="print one line per cell as it settles: "
                            "status, attempts, seconds")
    p_run.add_argument("--rollup-out", default=None, metavar="PATH",
                       help="write the campaign rollup JSON (cell "
                            "statuses, throughput, event counts and merged "
                            "histograms of the cells run here; runs each "
                            "cell observed)")
    add_executor_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser(
        "stats", help="run with telemetry and print the full report"
    )
    p_stats.add_argument("workload", nargs="?", default=None)
    p_stats.add_argument("--mode", default="tea", choices=MODES)
    p_stats.add_argument("--scale", default="tiny")
    p_stats.add_argument("--top", type=int, default=10,
                         help="rows in the per-branch offender table")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the flat metrics snapshot as JSON")
    p_stats.add_argument("--events", default=None, metavar="PATH",
                         help="summarize a saved JSONL event dump instead "
                              "of running a simulation")
    p_stats.set_defaults(func=_cmd_stats)

    p_prof = sub.add_parser(
        "profile", help="per-stage wall-clock self-profile of one run"
    )
    p_prof.add_argument("workload")
    p_prof.add_argument("--mode", default="tea", choices=MODES)
    p_prof.add_argument("--scale", default="tiny")
    p_prof.add_argument("--out", default=None, metavar="PATH",
                        help="write the flat profile.* JSON snapshot")
    p_prof.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write Perfetto counter tracks (trace_event)")
    p_prof.add_argument("--gate", action="store_true",
                        help="verify profiled runs stay cycle-exact and the "
                             "disabled path carries no wrappers; exit 1 on "
                             "violation")
    p_prof.set_defaults(func=_cmd_profile)

    p_rep = sub.add_parser(
        "report", help="TEA timeliness/efficiency/accuracy paper metrics"
    )
    p_rep.add_argument("workloads",
                       help="workload name or comma-separated list")
    p_rep.add_argument("--mode", default="tea", choices=MODES)
    p_rep.add_argument("--scale", default="tiny")
    p_rep.add_argument("--top", type=int, default=10,
                       help="per-branch rows in the rendered table")
    p_rep.add_argument("--out", default=None, metavar="PATH",
                       help="write the per-workload report JSON")
    p_rep.add_argument("--json", action="store_true",
                       help="print the report JSON instead of the table")
    p_rep.set_defaults(func=_cmd_report)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name")
    p_fig.add_argument("--workloads", default=None,
                       help="comma-separated subset (default: all 17)")
    p_fig.add_argument("--scale", default="tiny")
    add_executor_options(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_bench = sub.add_parser(
        "bench", help="time the cycle kernel (simulated cycles/sec)"
    )
    p_bench.add_argument("--workloads", default=None,
                         help="comma-separated workloads "
                              "(default: pinned bfs,mcf,xz matrix)")
    p_bench.add_argument("--modes", default=None,
                         help="comma-separated modes (default: baseline,tea)")
    p_bench.add_argument("--scale", default="tiny")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="timed repetitions per cell; best is kept")
    p_bench.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON report (BENCH_pipeline.json)")
    p_bench.add_argument("--check", action="store_true",
                         help="smoke mode: first cell only, one repetition")
    p_bench.add_argument("--compare", default=None, metavar="PATH",
                         help="compare against a saved report; exit 1 on "
                              "regression beyond --tolerance")
    p_bench.add_argument("--tolerance", type=float, default=0.30,
                         help="allowed calibrated-throughput regression "
                              "fraction for --compare (default 0.30)")
    p_bench.set_defaults(func=_cmd_bench)

    p_sample = sub.add_parser(
        "sample",
        help="sampled simulation: functional fast-forward + parallel "
             "detailed windows",
    )
    p_sample.add_argument("workload", nargs="?", default=None)
    p_sample.add_argument("--mode", default="tea", choices=MODES)
    p_sample.add_argument("--scale", default="tiny")
    p_sample.add_argument("--windows", type=int, default=8, metavar="K",
                          help="detailed windows (default 8)")
    p_sample.add_argument("--warmup", type=int, default=2000, metavar="N",
                          help="warmup instructions per window "
                               "(default 2000)")
    p_sample.add_argument("--measure", type=int, default=4000, metavar="N",
                          help="measured instructions per window "
                               "(default 4000)")
    p_sample.add_argument("--jobs", type=_count, default=0, metavar="N",
                          help="worker processes (0 = inline; reports are "
                               "byte-identical either way)")
    p_sample.add_argument("--seed", type=int, default=0,
                          help="placement seed (used by --placement random)")
    p_sample.add_argument("--placement", default="even",
                          choices=("even", "random"))
    p_sample.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON report")
    p_sample.add_argument("--validate", action="store_true",
                          help="sampled-vs-full error table on the pinned "
                               "matrix; exit 1 outside tolerance")
    p_sample.set_defaults(func=_cmd_sample)

    p_lint = sub.add_parser(
        "lint", help="statically lint workload programs"
    )
    p_lint.add_argument("workload", nargs="?", default=None,
                        help="workload name or comma-separated list")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registered workload")
    p_lint.add_argument("--source", default=None, metavar="FILE",
                        help="lint an assembly source file instead")
    p_lint.add_argument("--scale", default="tiny")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    p_lint.set_defaults(func=_cmd_lint)

    p_chains = sub.add_parser(
        "chains", help="static precomputation chains: classification, "
                       "soundness oracle, allow mask"
    )
    p_chains.add_argument("workload",
                          help="workload name or comma-separated list; "
                               "'fuzz' or 'fuzz/*' expands to every corpus "
                               "repro record")
    p_chains.add_argument("--scale", default="tiny")
    p_chains.add_argument("--mode", default="tea", choices=MODES,
                          help="machine mode for --oracle (must have TEA)")
    p_chains.add_argument("--oracle", action="store_true",
                          help="run a TEA simulation, verify every Backward "
                               "Dataflow Walk against its static chain, and "
                               "reconcile the timeliness model; exit 1 on "
                               "any unsound chain")
    p_chains.add_argument("--mask", action="store_true",
                          help="with --oracle: run with the static allow "
                               "mask installed (chainable branches only)")
    p_chains.add_argument("--json", action="store_true",
                          help="emit the report(s) as JSON")
    p_chains.add_argument("--out", default=None, metavar="PATH",
                          help="also write the JSON report")
    p_chains.add_argument("--mask-out", default=None, metavar="PATH",
                          help="write the TeaConfig.branch_mask allow list "
                               "(single workload only)")
    p_chains.set_defaults(func=_cmd_chains)

    p_inject = sub.add_parser(
        "inject", help="seeded microarchitectural fault-injection campaign"
    )
    p_inject.add_argument("workloads", nargs="?", default="bfs,mcf,xz",
                          help="comma-separated workloads; 'fuzz' or "
                               "'fuzz/*' expands to every corpus repro "
                               "record (default: bfs,mcf,xz)")
    p_inject.add_argument("--mode", default="tea", choices=MODES)
    p_inject.add_argument("--scale", default="tiny")
    p_inject.add_argument("--kinds", default=None,
                          help="comma-separated fault kinds "
                               "(default: all registered kinds)")
    p_inject.add_argument("--seeds", type=int, default=2, metavar="N",
                          help="seeds per (workload, kind) cell")
    p_inject.add_argument("--check-invariants", type=_count, default=16,
                          metavar="N",
                          help="invariant audit period during the campaign")
    p_inject.add_argument("--max-cycles", type=int, default=2_000_000)
    p_inject.add_argument("--start-cycle", type=int, default=2_000,
                          metavar="N",
                          help="earliest cycle a fault may fire; lower it "
                               "for short fuzz repros (default 2000)")
    p_inject.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON campaign report")
    p_inject.add_argument("--json", action="store_true",
                          help="print the full report as JSON")
    p_inject.set_defaults(func=_cmd_inject)

    p_fuzz = sub.add_parser(
        "fuzz", help="seeded differential fuzzing campaign"
    )
    p_fuzz.add_argument("--seeds", type=int, default=64, metavar="N",
                        help="number of seeds in the batch (default 64)")
    p_fuzz.add_argument("--seed-base", type=int, default=0, metavar="S",
                        help="first seed; the batch is [S, S+N)")
    p_fuzz.add_argument("--budget", type=float, default=60.0, metavar="SEC",
                        help="per-seed wall-clock limit (enforced by worker "
                             "termination when --jobs >= 1)")
    p_fuzz.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="delta-debug each unique failure's "
                             "representative before recording it")
    p_fuzz.add_argument("--shrink-budget", type=int, default=512, metavar="N",
                        help="oracle evaluations allowed per shrink")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="repro-record directory "
                             "(default benchmarks/fuzz/)")
    p_fuzz.add_argument("--jobs", type=_count, default=0, metavar="N",
                        help="worker processes (0 = inline)")
    p_fuzz.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON triage report")
    p_fuzz.add_argument("--mode", default="baseline", choices=MODES)
    p_fuzz.add_argument("--check-invariants", type=_count, default=64,
                        metavar="N",
                        help="invariant audit period in the pipeline leg")
    p_fuzz.add_argument("--max-cycles", type=int, default=2_000_000)
    p_fuzz.add_argument("--knobs", default=None, metavar="K=V[,K=V...]",
                        help="generator profile overrides, e.g. "
                             "loops=1,body_ops=3,indirect_fanout=8")
    p_fuzz.add_argument("--seeded-bug", default=None, metavar="NAME",
                        help="apply a named repro.fuzz.bugs fixture to the "
                             "pipeline (oracle self-test)")
    p_fuzz.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="JSONL journal of completed runs")
    p_fuzz.add_argument("--resume", action="store_true",
                        help="skip runs already in the checkpoint journal")
    p_fuzz.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
