"""Kernel throughput benchmark: simulated cycles/sec and uops/sec.

The cycle kernel (:meth:`Pipeline.step` and everything it calls) is the
throughput ceiling for every figure campaign the harness fans out; this
module times it on a pinned set of fig5 workload x mode cells and
records the trajectory in ``BENCH_pipeline.json`` so perf regressions
are visible PR over PR.

Methodology
-----------
* Workload construction and config building happen **outside** the
  timed region; only :meth:`Pipeline.run` is timed.
* Each cell runs ``repeat`` times and reports the **best** wall time
  (interference only ever slows a run down, so min is the estimator
  closest to the kernel's true cost).
* A small pure-Python calibration loop is timed on the same host and
  its score stored alongside the results.  Comparisons between two
  reports (``compare_reports``) use *calibrated* throughput —
  cycles/sec divided by the host's calibration score — so a committed
  baseline number is meaningful on a CI runner of a different speed.
* Functional validation still runs after every timed cell: a kernel
  that got faster by computing wrong answers must never publish a
  throughput number.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from ..core import Pipeline
from ..workloads import make_workload
from .runner import make_config

#: The pinned benchmark matrix: fig5's headline comparison (baseline vs
#: TEA on on-core resources) on three control-flow-diverse workloads.
#: Pinned so BENCH_pipeline.json numbers are comparable PR over PR.
PINNED_RUNS: tuple[tuple[str, str], ...] = (
    ("bfs", "baseline"),
    ("bfs", "tea"),
    ("mcf", "baseline"),
    ("mcf", "tea"),
    ("xz", "baseline"),
    ("xz", "tea"),
)

SCHEMA_VERSION = 1


def calibrate(iterations: int = 2_000_000) -> float:
    """Score this host: millions of trivial loop iterations per second.

    The loop shape (attribute-free arithmetic in a tight Python loop)
    deliberately resembles the simulator's hot path more than, say, a
    numpy kernel would.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    dt = time.perf_counter() - t0
    # ``acc`` is consumed so the loop cannot be optimised away.
    assert acc >= 0
    return iterations / dt / 1e6


def bench_cell(
    workload_name: str,
    mode: str,
    scale: str = "tiny",
    repeat: int = 3,
) -> dict:
    """Time one (workload, mode) cell; returns a JSON-safe record."""
    workload = make_workload(workload_name, scale)
    config = make_config(mode)
    best = None
    stats = None
    validated = None
    for _ in range(max(1, repeat)):
        pipeline = Pipeline(workload.program, workload.fresh_memory(), config)
        t0 = time.perf_counter()
        pipeline.run(max_cycles=30_000_000)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
            stats = pipeline.stats
        if pipeline.halted and workload.validate is not None:
            validated = workload.validate(pipeline)
            if not validated:
                raise RuntimeError(
                    f"bench cell {workload_name}/{mode} failed functional "
                    f"validation -- refusing to record a throughput number"
                )
    uops = stats.fetched_uops + stats.tea_fetched_uops
    return {
        "workload": workload_name,
        "mode": mode,
        "scale": scale,
        "wall_s": round(best, 6),
        "cycles": stats.cycles,
        "instructions": stats.retired_instructions,
        "uops": uops,
        "cycles_per_sec": round(stats.cycles / best, 1),
        "uops_per_sec": round(uops / best, 1),
        "ipc": round(stats.ipc, 4),
        "validated": validated,
    }


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def run_bench(
    runs: tuple[tuple[str, str], ...] = PINNED_RUNS,
    scale: str = "tiny",
    repeat: int = 3,
    progress=None,
) -> dict:
    """Run the benchmark matrix; returns the full report dict."""
    calibration = calibrate()
    cells = []
    for workload_name, mode in runs:
        cell = bench_cell(workload_name, mode, scale, repeat)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    geomean_cps = _geomean([c["cycles_per_sec"] for c in cells])
    geomean_ups = _geomean([c["uops_per_sec"] for c in cells])
    functional = functional_bench(runs, scale, repeat, cells)
    sampling = sampling_bench(runs, scale, repeat)
    return {
        "schema": SCHEMA_VERSION,
        "bench": "pipeline",
        "scale": scale,
        "repeat": repeat,
        "host": {
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "platform": platform.platform(),
            "calibration_mops": round(calibration, 2),
        },
        "runs": cells,
        "functional": functional,
        "sampling": sampling,
        "geomean_cycles_per_sec": round(geomean_cps, 1),
        "geomean_uops_per_sec": round(geomean_ups, 1),
        "calibrated_cycles_per_sec": round(geomean_cps / calibration, 1),
    }


def functional_bench(
    runs: tuple[tuple[str, str], ...] = PINNED_RUNS,
    scale: str = "tiny",
    repeat: int = 3,
    detailed_cells: list[dict] | None = None,
) -> dict:
    """Time the functional fast-forward engine against the references.

    For every distinct workload in ``runs`` this times (best-of-repeat,
    same estimator as the detailed cells):

    * the closure-compiled :class:`~repro.sampling.functional.\
FunctionalEngine` **with warmup tracking on** — the exact
      configuration the sampled-simulation fast-forward uses, so the
      recorded rate is the honest one, not a stripped-down showpiece;
    * the golden interpreter (``repro.isa.interpreter.run_program``) —
      the pre-bound-dispatch hot loop this PR optimised.

    Speedups versus the detailed kernel divide by the **fastest**
    detailed cell for the same workload (instructions/sec across the
    modes in ``detailed_cells``), i.e. the conservative lower bound.
    Engine compilation happens outside the timed region, mirroring how
    the detailed cells exclude Pipeline construction.  The sampling
    import is function-level: harness sits below sampling in the
    architecture layering.
    """
    from ..isa.interpreter import run_program
    from ..sampling.functional import functional_rate

    max_steps = 50_000_000
    detailed_rates: dict[str, float] = {}
    for cell in detailed_cells or []:
        rate = cell["instructions"] / cell["wall_s"] if cell["wall_s"] else 0.0
        name = cell["workload"]
        detailed_rates[name] = max(detailed_rates.get(name, 0.0), rate)

    rows = []
    for name in dict.fromkeys(workload for workload, _ in runs):
        workload = make_workload(name, scale)
        executed = 0
        best_func = None
        for _ in range(max(1, repeat)):
            count, wall = functional_rate(
                workload.program, workload.fresh_memory(), max_steps
            )
            executed = count
            if best_func is None or wall < best_func:
                best_func = wall
        best_interp = None
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            result = run_program(
                workload.program, workload.fresh_memory(), max_steps
            )
            wall = time.perf_counter() - t0
            if result.instructions_executed != executed:
                raise RuntimeError(
                    f"functional/interpreter divergence on {name}: "
                    f"{executed} vs {result.instructions_executed} "
                    "instructions -- refusing to record a rate"
                )
            if best_interp is None or wall < best_interp:
                best_interp = wall
        func_rate = executed / best_func if best_func else 0.0
        interp_rate = executed / best_interp if best_interp else 0.0
        detailed = detailed_rates.get(name)
        rows.append(
            {
                "workload": name,
                "scale": scale,
                "instructions": executed,
                "functional_wall_s": round(best_func, 6),
                "functional_instr_per_sec": round(func_rate, 1),
                "interpreter_wall_s": round(best_interp, 6),
                "interpreter_instr_per_sec": round(interp_rate, 1),
                "detailed_instr_per_sec": (
                    round(detailed, 1) if detailed else None
                ),
                "speedup_vs_detailed": (
                    round(func_rate / detailed, 1) if detailed else None
                ),
                "speedup_vs_interpreter": (
                    round(func_rate / interp_rate, 1) if interp_rate else None
                ),
            }
        )
    speedups = [
        r["speedup_vs_detailed"] for r in rows if r["speedup_vs_detailed"]
    ]
    return {
        "rows": rows,
        "geomean_functional_instr_per_sec": round(
            _geomean([r["functional_instr_per_sec"] for r in rows]), 1
        ),
        "geomean_interpreter_instr_per_sec": round(
            _geomean([r["interpreter_instr_per_sec"] for r in rows]), 1
        ),
        "geomean_speedup_vs_detailed": (
            round(_geomean(speedups), 1) if speedups else None
        ),
        "methodology": (
            "best-of-repeat wall time; engine/pipeline construction "
            "excluded; functional engine timed with warmup tracking ON "
            "(the sampling configuration); speedup divides by the "
            "fastest detailed mode per workload (conservative)"
        ),
    }


def sampling_bench(
    runs: tuple[tuple[str, str], ...] = PINNED_RUNS,
    scale: str = "tiny",
    repeat: int = 3,
) -> dict:
    """Time the sampled-simulation functional phase, one pass vs two.

    The window scheduler used to run one functional pass to count
    instructions and a second to capture checkpoints;
    :func:`~repro.sampling.checkpoint.run_and_capture` folds both into
    a single pass with a bounded snapshot reservoir.  This times both
    shapes on the pinned workloads with the scheduler's default window
    plan and records the honest speedup — after asserting the two
    produce identical checkpoints (a faster capture that captures
    something else must never publish a number).
    """
    from ..sampling.checkpoint import capture_checkpoints, run_and_capture
    from ..sampling.functional import FunctionalEngine
    from ..sampling.windows import (
        DEFAULT_MEASURE,
        DEFAULT_WARMUP,
        DEFAULT_WINDOWS,
        FASTFORWARD_MAX_STEPS,
        place_windows,
    )

    def plan(total: int) -> list[int]:
        starts = place_windows(total, DEFAULT_WINDOWS, DEFAULT_MEASURE)
        return sorted({max(0, s - DEFAULT_WARMUP) for s in starts})

    rows = []
    for name in dict.fromkeys(workload for workload, _ in runs):
        best_one = best_two = None
        one_pass = two_pass = None
        total = 0
        for _ in range(max(1, repeat)):
            workload = make_workload(name, scale)
            t0 = time.perf_counter()
            total, one_pass = run_and_capture(
                workload, plan, workload_name=name, scale=scale,
                max_steps=FASTFORWARD_MAX_STEPS,
            )
            wall = time.perf_counter() - t0
            if best_one is None or wall < best_one:
                best_one = wall
        for _ in range(max(1, repeat)):
            workload = make_workload(name, scale)
            t0 = time.perf_counter()
            counted = FunctionalEngine(
                workload.program, workload.fresh_memory()
            ).run_to_halt(FASTFORWARD_MAX_STEPS)
            two_pass = capture_checkpoints(
                make_workload(name, scale), plan(counted),
                workload_name=name, scale=scale,
            )
            wall = time.perf_counter() - t0
            if best_two is None or wall < best_two:
                best_two = wall
        if one_pass != two_pass:
            raise RuntimeError(
                f"one-pass/two-pass checkpoint divergence on {name} "
                "-- refusing to record a speedup"
            )
        rows.append(
            {
                "workload": name,
                "scale": scale,
                "instructions": total,
                "checkpoints": len(one_pass),
                "one_pass_wall_s": round(best_one, 6),
                "two_pass_wall_s": round(best_two, 6),
                "speedup": round(best_two / best_one, 2) if best_one else None,
            }
        )
    return {
        "rows": rows,
        "geomean_speedup": round(
            _geomean([r["speedup"] for r in rows if r["speedup"]]), 2
        ),
        "methodology": (
            "best-of-repeat wall time; default window plan "
            f"({_bench_plan_note()}); one-pass run_and_capture vs "
            "count-then-capture, checkpoints asserted identical"
        ),
    }


def _bench_plan_note() -> str:
    from ..sampling.windows import (
        DEFAULT_MEASURE,
        DEFAULT_WARMUP,
        DEFAULT_WINDOWS,
    )

    return (
        f"{DEFAULT_WINDOWS} windows, warmup {DEFAULT_WARMUP}, "
        f"measure {DEFAULT_MEASURE}"
    )


def compare_reports(current: dict, baseline: dict) -> dict:
    """Compare two bench reports on *calibrated* throughput.

    Returns ``{"speedup": float, "current": ..., "baseline": ...}``
    where speedup > 1 means the current kernel is faster per unit of
    host speed.  Raw cycles/sec is also included for same-host runs.
    """
    cur = current.get("calibrated_cycles_per_sec", 0.0)
    base = baseline.get("calibrated_cycles_per_sec", 0.0)
    raw_cur = current.get("geomean_cycles_per_sec", 0.0)
    raw_base = baseline.get("geomean_cycles_per_sec", 0.0)
    return {
        "speedup": cur / base if base else float("inf"),
        "raw_speedup": raw_cur / raw_base if raw_base else float("inf"),
        "current": cur,
        "baseline": base,
        "current_raw": raw_cur,
        "baseline_raw": raw_base,
    }


def load_report(path: str) -> dict:
    """Load a benchmark report, rejecting files from other benches."""
    with open(path) as fh:
        report = json.load(fh)
    if report.get("bench") != "pipeline":
        raise ValueError(f"{path} is not a pipeline bench report")
    return report


def write_report(report: dict, path: str) -> None:
    """Write a benchmark report as stable, diff-friendly JSON.

    The ``trajectory`` of a report already at ``path`` (the interleaved
    before/after runs each speed change records) carries over.
    """
    try:
        with open(path) as fh:
            trajectory = json.load(fh).get("trajectory")
    except (OSError, ValueError, AttributeError):
        trajectory = None
    if trajectory is not None and "trajectory" not in report:
        report = {**report, "trajectory": trajectory}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
