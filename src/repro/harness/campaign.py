"""Folds over a campaign's settled cells: rollup and regression diff.

A campaign's results are its settled
:class:`~repro.harness.executor.RunOutcome` cells, journaled in its
checkpoint (:class:`~repro.harness.executor.CheckpointJournal`).
``campaign_rollup`` folds one campaign's cells into its telemetry
rollup (``repro run --rollup-out``).  Diffing two journals loaded with
:func:`~repro.harness.executor.load_checkpoint` makes runs comparable
across simulator versions: ``diff_campaigns`` highlights per-benchmark
IPC movements, which is how a change to (say) the scheduler shows up as
a Fig. 5 regression.
"""

from __future__ import annotations

from ..obs.metrics import Histogram


def campaign_rollup(specs, outcomes, wall_seconds: float) -> dict:
    """Fold a campaign's specs and settled outcomes into its rollup.

    * ``cells`` — counts by status; a spec without a settled outcome
      (a drained campaign) counts as ``pending``;
    * ``by_cell`` — status, attempts and wall seconds per display key;
    * ``throughput`` — simulated cycles and busy seconds summed over
      settled cells, against the campaign's ``wall_seconds``;
    * ``events.emitted`` — exact per-type event counts, and
      ``histograms`` — per-workload bucket-wise merges of the standard
      histograms with p50/p95/p99.

    Only ``ok`` cells observed in this run (:attr:`RunOutcome.metrics`,
    from ``execute_spec(record, observe=True)``) contribute to the last
    two; failed, timed-out and resumed cells contribute none.  The
    result is JSON-safe.
    """
    settled = {outcome.spec: outcome for outcome in outcomes}
    by_cell = {}
    for spec in specs:
        outcome = settled.get(spec)
        by_cell[spec.key] = {
            "status": outcome.status if outcome else "pending",
            "attempts": outcome.attempts if outcome else 0,
            "duration": round(outcome.duration, 3) if outcome else 0.0,
        }
    statuses = [cell["status"] for cell in by_cell.values()]
    emitted: dict[str, int] = {}
    merged: dict[str, dict[str, Histogram]] = {}
    for outcome in settled.values():
        if not (outcome.ok and outcome.metrics):
            continue
        for name, count in outcome.metrics["gauges"].items():
            if name.startswith("events."):
                type_ = name[len("events."):]
                emitted[type_] = emitted.get(type_, 0) + count
        hists = merged.setdefault(outcome.spec.workload, {})
        for name, snapshot in outcome.metrics["histograms"].items():
            if name not in hists:
                hists[name] = Histogram(name, tuple(snapshot["edges"]))
            hists[name].merge(snapshot)
    cycles = sum((o.stats or {}).get("cycles", 0) for o in settled.values())
    busy = sum(outcome.duration for outcome in settled.values())
    return {
        "cells": {
            "total": len(statuses),
            "ok": statuses.count("ok"),
            "failed": statuses.count("failed"),
            "timeout": statuses.count("timeout"),
            "pending": statuses.count("pending"),
            "retried": sum(1 for o in settled.values() if o.attempts > 1),
        },
        "by_cell": dict(sorted(by_cell.items())),
        "throughput": {
            "simulated_cycles": cycles,
            "wall_seconds": round(wall_seconds, 3),
            "busy_seconds": round(busy, 3),
            "cycles_per_sec": cycles / busy if busy else 0.0,
        },
        "events": {"emitted": dict(sorted(emitted.items()))},
        "histograms": {
            workload: {name: h.as_dict() for name, h in sorted(hists.items())}
            for workload, hists in sorted(merged.items())
        },
    }


def diff_campaigns(
    before: dict, after: dict, threshold_pct: float = 1.0
) -> list[dict]:
    """Per-run IPC movements beyond ``threshold_pct``, largest first.

    ``before``/``after`` map display keys to
    :class:`~repro.harness.executor.RunOutcome` (the shape
    :func:`~repro.harness.executor.load_checkpoint` returns).  Returns
    ``[{"run", "before_ipc", "after_ipc", "delta_pct"}, ...]`` covering
    cells that succeeded in both campaigns; failed cells have no
    meaningful IPC to diff.
    """
    movements = []
    for key, new in after.items():
        old = before.get(key)
        if old is None or not (old.ok and new.ok):
            continue
        old_ipc, new_ipc = old.sim_stats().ipc, new.sim_stats().ipc
        if old_ipc <= 0:
            continue
        delta = 100.0 * (new_ipc / old_ipc - 1.0)
        if abs(delta) >= threshold_pct:
            movements.append(
                {
                    "run": key,
                    "before_ipc": old_ipc,
                    "after_ipc": new_ipc,
                    "delta_pct": delta,
                }
            )
    movements.sort(key=lambda m: abs(m["delta_pct"]), reverse=True)
    return movements
