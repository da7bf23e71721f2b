"""Sample-window scheduling, parallel execution, and extrapolation.

The pFSA-shaped pipeline: a single functional pass counts the
program's instructions while keeping a bounded snapshot reservoir
(:func:`~repro.sampling.checkpoint.run_and_capture`), window start
positions are placed (evenly spaced or seeded-random), a
:class:`~repro.sampling.checkpoint.Checkpoint` is materialized at each
position by rewinding to the nearest snapshot, and
each checkpoint becomes one *detailed window* — a short
warmup+measurement run of the cycle-exact pipeline, warm-started from
the checkpoint.  Windows ship through the existing
:class:`~repro.harness.executor.CampaignExecutor` process pool
(timeouts, retries, and checkpoint journals all reuse), with the
checkpoint *file path* carried in the RunSpec ``workload`` field so the
spec stays a plain picklable record.

Extrapolation pools the measured windows: IPC is
``sum(instructions)/sum(cycles)`` (cycle-weighted), MPKI is
``1000 * sum(mispredicts)/sum(instructions)``, and each pooled metric
carries a 95% confidence interval from the per-window spread
(``1.96 * stdev / sqrt(K)``).  Reports contain **no wall-clock
fields** — for a fixed seed a parallel (``jobs=N``) sampled report is
byte-identical to a serial one, which the determinism tests and the CI
smoke job diff directly.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from ..harness.executor import CampaignExecutor, RunOutcome, RunSpec
from ..harness.runner import make_config
from ..workloads import make_workload
from .checkpoint import Checkpoint, run_and_capture

if TYPE_CHECKING:
    from ..obs.hub import Observation

SAMPLE_SCHEMA = 1

#: Default per-window knobs: long enough for TAGE/BTB/H2P residual
#: warmup on top of the checkpoint seed, short enough that K windows
#: stay far under the full run (pinned by the validation harness).
DEFAULT_WINDOWS = 8
DEFAULT_WARMUP = 2000
DEFAULT_MEASURE = 4000

#: Generous cycle ceiling per window (a window is a few thousand
#: instructions; IPC below 0.05 would be a model bug, not a workload).
WINDOW_MAX_CYCLES = 2_000_000

#: Functional fast-forward budget (instructions).  The biggest
#: registered scale is ~2M instructions; 50M leaves room for `large`
#: scales later while still catching runaway programs.
FASTFORWARD_MAX_STEPS = 50_000_000

WINDOW_FILE_SCHEMA = 1


def place_windows(
    total_instructions: int,
    windows: int,
    measure: int,
    placement: str = "even",
    seed: int = 0,
) -> list[int]:
    """Choose *measured-segment* start positions (ascending).

    Positions are where measurement begins, not where the detailed run
    begins — the scheduler backs each one up by the warmup length
    (clamped at zero) to pick the checkpoint.  This keeps the measured
    segments an unbiased spread over the whole run: position 0 measures
    the genuinely cold start, and ``even`` placement is
    endpoint-inclusive so the last segment ends at the halt point —
    phase drift at either end would otherwise bias every estimate.
    ``random`` draws K seeded-uniform positions instead.  Positions are
    deduplicated, so very short programs may yield fewer windows.
    """
    if windows <= 0:
        raise ValueError(f"windows must be >= 1, got {windows}")
    span = max(1, total_instructions - measure)
    if placement == "even":
        step = max(1, windows - 1)
        positions = [span * i // step for i in range(windows)]
    elif placement == "random":
        rng = random.Random(seed)
        positions = [rng.randrange(span) for _ in range(windows)]
    else:
        raise ValueError(
            f"unknown placement {placement!r}; use even/random"
        )
    return sorted(set(positions))


# ======================================================================
# Worker task
# ======================================================================
def execute_window(record: dict) -> dict:
    """Executor task: run one detailed window from a checkpoint file.

    ``record`` is a :class:`RunSpec` record whose ``workload`` field is
    the *path* of a window file written by :func:`run_sampled` — a
    JSON wrapper holding the window knobs plus the full checkpoint.
    Module-level and picklable by name, as the process pool requires.
    """
    from dataclasses import replace

    from ..core.pipeline import Pipeline
    from .checkpoint import seed_pipeline

    spec = RunSpec.from_record(record)
    window = json.loads(Path(spec.workload).read_text())
    if window.get("schema") != WINDOW_FILE_SCHEMA:
        raise ValueError(
            f"unsupported window file schema {window.get('schema')!r}"
        )
    checkpoint = Checkpoint.from_record(window["checkpoint"])
    workload = make_workload(checkpoint.workload, checkpoint.scale)
    config = replace(
        make_config(window["mode"]),
        warmup_instructions=window["warmup"],
        max_instructions=window["measure"],
        max_cycles=spec.max_cycles,
    )
    pipeline = Pipeline(workload.program, checkpoint.fresh_memory(), config)
    seed_pipeline(pipeline, checkpoint)
    stats = pipeline.run()
    row = stats.as_dict()
    row["window_index"] = window["index"]
    row["window_position"] = window["start"]
    return {"stats": row, "validated": True, "halted": pipeline.halted}


# ======================================================================
# Orchestration
# ======================================================================
def run_sampled(
    workload: str,
    mode: str = "tea",
    scale: str = "bench",
    windows: int = DEFAULT_WINDOWS,
    warmup: int = DEFAULT_WARMUP,
    measure: int = DEFAULT_MEASURE,
    jobs: int = 0,
    seed: int = 0,
    placement: str = "even",
    timeout: float | None = None,
    retries: int = 2,
    workdir: str | Path | None = None,
    observation: "Observation | None" = None,
    max_steps: int = FASTFORWARD_MAX_STEPS,
) -> dict:
    """Run one sampled simulation; returns the JSON-safe report.

    ``jobs=0`` runs windows inline; ``jobs>=1`` fans them out over the
    campaign process pool.  The report carries no wall-clock state, so
    for fixed inputs it is byte-identical across ``jobs`` settings.
    """
    unit = make_workload(workload, scale)
    bus = observation.bus if observation is not None else None

    # One functional pass counts instructions AND captures checkpoints:
    # the planner sees the discovered total, places the measured-segment
    # starts, and backs each up by the warmup length to its checkpoint
    # (clamped at zero — the first window measures the genuinely cold
    # start; distinct windows may share a checkpoint when their warmups
    # clamp).
    planned: dict = {}

    def planner(total: int) -> list[int]:
        starts = place_windows(total, windows, measure, placement, seed)
        planned["starts"] = starts
        planned["plans"] = [
            (start, max(0, start - warmup)) for start in starts
        ]
        return sorted({position for _, position in planned["plans"]})

    total, checkpoints = run_and_capture(
        unit, planner, workload_name=workload, scale=scale,
        max_steps=max_steps,
    )
    starts, plans = planned["starts"], planned["plans"]
    by_position = {ckpt.position: ckpt for ckpt in checkpoints}
    if bus is not None:
        bus.emit(
            "sample_plan",
            workload=workload,
            mode=mode,
            windows=len(starts),
            total_instructions=total,
        )
    if bus is not None:
        for ckpt in checkpoints:
            bus.emit(
                "sample_checkpoint",
                pc=ckpt.pc,
                workload=workload,
                position=ckpt.position,
            )

    # Ship each window as one executor cell.
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-sample-")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    specs = []
    for index, (start, position) in enumerate(plans):
        ckpt = by_position.get(position)
        if ckpt is None:  # functional run halted before this position
            continue
        path = workdir / f"window-{index:03d}.json"
        path.write_text(
            json.dumps(
                {
                    "schema": WINDOW_FILE_SCHEMA,
                    "index": index,
                    "start": start,
                    "mode": mode,
                    "warmup": start - position,
                    "measure": measure,
                    "checkpoint": ckpt.as_record(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        specs.append(
            RunSpec(
                workload=str(path),
                mode=mode,
                scale=scale,
                max_cycles=WINDOW_MAX_CYCLES,
                seed=index,
            )
        )

    executor = CampaignExecutor(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        task=execute_window,
        observation=observation,
    )
    outcomes = executor.run(specs)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        detail = "; ".join(_failure_detail(o) for o in failed)
        raise RuntimeError(f"sampled window(s) failed: {detail}")

    rows = sorted(
        (o.stats for o in outcomes), key=lambda s: s["window_index"]
    )
    report = _build_report(
        workload, mode, scale, windows, warmup, measure, placement,
        seed, total, starts, rows,
    )
    if bus is not None:
        for row in report["windows"]:
            bus.emit(
                "sample_window_done",
                workload=workload,
                index=row["index"],
                ipc=row["ipc"],
                mpki=row["mpki"],
            )
        bus.emit(
            "sample_estimate",
            workload=workload,
            mode=mode,
            ipc=report["estimates"]["ipc"]["value"],
            mpki=report["estimates"]["mpki"]["value"],
        )
    return report


def _failure_detail(outcome: RunOutcome) -> str:
    """``key: status (kind Exception: message)`` for one failed window."""
    failure = outcome.failure
    if failure is None:
        return f"{outcome.key}: {outcome.status}"
    return (
        f"{outcome.key}: {outcome.status} "
        f"({failure.kind} {failure.exception}: {failure.message})"
    )


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    """(mean, half-width of the 95% CI) — CI None for K < 2."""
    if not values:
        return None, None
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, 1.96 * math.sqrt(var / len(values))


def _estimate(pooled: float, per_window: list[float]) -> dict:
    """One pooled metric + its per-window 95% confidence interval."""
    _, half = _mean_ci(per_window)
    return {
        "value": pooled,
        "ci95": half,
        "per_window": per_window,
    }


def _build_report(
    workload: str,
    mode: str,
    scale: str,
    windows: int,
    warmup: int,
    measure: int,
    placement: str,
    seed: int,
    total: int,
    positions: list[int],
    rows: list[dict],
) -> dict:
    window_rows = []
    instr = cycles = mispredicts = 0
    tea_resolved = tea_wrong = covered = uncovered = 0
    ipcs: list[float] = []
    mpkis: list[float] = []
    for row in rows:
        w_instr = row["retired_instructions"]
        w_cycles = row["cycles"]
        w_misp = row["direction_mispredicts"] + row["target_mispredicts"]
        instr += w_instr
        cycles += w_cycles
        mispredicts += w_misp
        tea_resolved += row["tea_resolved_branches"]
        tea_wrong += row["tea_wrong_resolutions"]
        covered += row["covered_timely"] + row["covered_late"]
        # Same denominator as SimStats.coverage.
        uncovered += (
            row["uncovered_mispredicts"] + row["incorrect_precomputations"]
        )
        w_ipc = w_instr / w_cycles if w_cycles else 0.0
        w_mpki = 1000.0 * w_misp / w_instr if w_instr else 0.0
        ipcs.append(w_ipc)
        mpkis.append(w_mpki)
        window_rows.append(
            {
                "index": row["window_index"],
                "position": row["window_position"],
                "instructions": w_instr,
                "cycles": w_cycles,
                "mispredicts": w_misp,
                "ipc": w_ipc,
                "mpki": w_mpki,
            }
        )
    estimates = {
        "ipc": _estimate(instr / cycles if cycles else 0.0, ipcs),
        "mpki": _estimate(
            1000.0 * mispredicts / instr if instr else 0.0, mpkis
        ),
        "tea_accuracy": {
            "value": (
                (tea_resolved - tea_wrong) / tea_resolved
                if tea_resolved
                else None
            ),
        },
        "tea_coverage": {
            "value": (
                covered / (covered + uncovered)
                if covered + uncovered
                else None
            ),
        },
    }
    return {
        "schema": SAMPLE_SCHEMA,
        "kind": "sampled",
        "workload": workload,
        "mode": mode,
        "scale": scale,
        "plan": {
            "windows": windows,
            "warmup": warmup,
            "measure": measure,
            "placement": placement,
            "seed": seed,
        },
        "functional": {
            "total_instructions": total,
            "positions": list(positions),
            "captured": len(window_rows),
        },
        "windows": window_rows,
        "estimates": estimates,
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write a sampled report deterministically (sorted keys, LF)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
