"""Repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

``--workload`` is ``figure``, ``sampled`` or ``fuzz`` (see
``perfbench/README.md`` for what each runs and why), or ``all`` to run
the three in turn, each in its own process, and print all their
metrics.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the same plan twice, untraced and traced, interleaved unit by
unit, and reports the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable table.  The exit code is 0 when every correctness
check passed, 1 when one failed, and 2 when there is nothing to run
(no ``src/repro`` next to this directory, or no plan of the workload
fits ``--seconds``).

Host times are reported at the reference host speed: raw seconds are
divided by the host slowdown that ``hostref.py`` measures as the run
goes.
The slowdown itself is reported as ``host.slowdown`` in the traced run
and printed by both.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Import this directory as the ``perfbench`` package, not as top-level
# modules that could shadow others.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    del sys.path[0]
sys.path.insert(0, str(ROOT))

from perfbench import hostref, plans, spans, workloads  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Where runs keep their scratch files and traces, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"
TRACES = ROOT / ".perfbench_out"

UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "sim_cycles_per_s": "1/s", "instr_per_s": "1/s", "peak_rss_mb": "MB",
}


def _purge_program() -> None:
    for name in [m for m in sys.modules if m == "repro" or
                 m.startswith("repro.")]:
        del sys.modules[name]


def measure_setup(bench, clock) -> list[tuple[float, float]]:
    """Import the program as the CLI does, plus the workload path's own
    modules, and build the first workload and config; repeated from a
    clean module table.  The last repetition's modules stay loaded.
    Returns the raw intervals."""
    times = []
    with clock.sampling():
        for _ in range(SETUP_REPEATS):
            _purge_program()
            gc.collect()
            start = time.perf_counter()
            importlib.import_module("repro.__main__")
            for module in bench.imports:
                importlib.import_module(module)
            bench.setup()
            times.append((start, time.perf_counter()))
    return times


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result, setup, clock, peak_mb) -> dict[str, float]:
    ops = sorted(clock.normalize(*op) for op in result.ops)
    wall = sum(clock.normalize(*unit) for unit in result.units)
    return {
        "setup_s": statistics.median(clock.normalize(*t) for t in setup),
        "wall_s": wall,
        "op_p50_s": statistics.median(ops),
        "op_p90_s": _quantile(ops, 90),
        "sim_cycles_per_s": result.cycles / wall,
        "instr_per_s": result.instructions / wall,
        "peak_rss_mb": peak_mb,
    }


def run(args, workdir: Path) -> tuple[dict, list[str], list[str]]:
    """Measure one workload; returns (result json, report lines,
    problems)."""
    clock = hostref.HostClock()
    clock.start()
    bench = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, ROOT, workdir
    )
    setup = measure_setup(bench, clock)
    lines = [f"perfbench {args.workload}: seed {args.seed}, "
             f"{len(bench.plan)} unit(s), plan {bench.plan!r}"]
    gc.collect()

    untraced = workloads.Pass()
    traced = workloads.Pass()
    tracer = spans.Tracer() if args.trace else None
    for index in range(len(bench.plan)):
        if tracer is None:
            bench.run_unit(index, untraced, clock, None)
            continue
        # Alternate which pass goes first so drift favours neither.
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced_pass in order:
            if traced_pass:
                restore = spans.instrument(tracer)
                try:
                    bench.run_unit(index, traced, clock, tracer)
                finally:
                    restore()
            else:
                bench.run_unit(index, untraced, clock, None)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.close()

    problems = bench.check(untraced)
    if tracer is not None:
        problems += bench.check(traced)
    if isinstance(bench, workloads.Sampled):
        problems += bench.check_repeat(untraced, traced)

    slowdowns = clock.slowdowns()
    lines.append(
        f"host slowdown vs reference: median "
        f"{statistics.median(slowdowns):.3f} over {len(slowdowns)} slices"
    )
    if tracer is None:
        metrics = end_to_end(untraced, setup, clock, peak_mb)
        lines.append(
            f"raw wall {sum(b - a for a, b in untraced.units):.3f} s; "
            f"{untraced.attempted} op(s), {untraced.failed} failed"
        )
        samples = {"setup_s": len(setup), "op_p50_s": untraced.attempted,
                   "op_p90_s": untraced.attempted}
        for name, value in metrics.items():
            lines.append(f"  {name:<18} {value:>16.6g} {UNITS[name]:<4} "
                         f"n={samples.get(name, 1)}")
        units = UNITS
    else:
        metrics = per_layer(args.workload, tracer, untraced, traced, clock,
                            lines)
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
        for name, value in metrics.items():
            lines.append(f"  {name:<34} {value:>16.6g} {spans.UNITS[name]}")
        units = spans.UNITS
    failed = untraced.failed + traced.failed
    return (
        {"correct": not problems and failed == 0,
         "attempted": untraced.attempted + traced.attempted,
         "failed": failed,
         "metrics": {name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()}},
        lines,
        problems,
    )


def per_layer(workload, tracer, untraced, traced, clock, lines) -> dict:
    """Per-layer metrics of a traced run, with its reconciliation and
    span accounting appended to ``lines``."""
    wall = {
        kind: sum(clock.normalize(*unit) for unit in p.units)
        for kind, p in (("untraced", untraced), ("traced", traced))
    }
    metrics = spans.layer_metrics(tracer, {
        "cells": traced.cells,
        "repeats": traced.repeats,
        "failed": traced.failed,
        "functional_instr": traced.instructions if workload == "sampled"
        else 0,
        "checkpoints": traced.extra.get("checkpoints", 0),
        "gen_attempts": traced.extra.get("gen_attempts", 0),
        "verdicts": traced.extra.get("verdicts", 0),
        "traced_wall_s": wall["traced"],
        "untraced_wall_s": wall["untraced"],
    })
    metrics["host.slowdown"] = statistics.median(clock.slowdowns())
    unreconciled = 0
    for what, seen, counted in spans.reconcile(tracer):
        flag = "ok" if seen == counted else "MISMATCH"
        unreconciled += seen != counted
        lines.append(f"  reconcile {what}: {seen} vs {counted} {flag}")
    accounting = tracer.op_accounting()
    for op, span, owned in accounting:
        if abs(span - owned) > 1e-6 * max(1.0, span):
            unreconciled += 1
            lines.append(f"  op {op}: span {span:.6f} s but self times "
                         f"sum to {owned:.6f} s")
    lines.append(f"  self times checked against {len(accounting)} op span(s)")
    metrics["trace.unreconciled"] = unreconciled
    return metrics


def measure(args) -> tuple[dict, list[str], list[str]]:
    """One workload run in a fresh scratch directory, removed after.

    The directory holds sampled window files, the fuzz corpus and any
    temporary file the program makes, so nothing carries over between
    runs.
    """
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    tempfile.tempdir = str(workdir)
    try:
        return run(args, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    try:
        result, lines, problems = measure(args)
    except plans.NoPlan as exc:
        print(f"perfbench: {exc} (the benchmark runs at --seconds 20)",
              file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload, each in its own process so that peak memory
    and loaded modules do not carry over, and print one JSON line with
    their metrics prefixed by the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
