"""Campaign regression diffing over checkpoint journals.

A campaign's results live in its checkpoint journal
(:class:`~repro.harness.executor.CheckpointJournal`).  Diffing two
journals loaded with :func:`~repro.harness.executor.load_checkpoint`
makes runs comparable across simulator versions: ``diff_campaigns``
highlights per-benchmark IPC movements, which is how a change to (say)
the scheduler shows up as a Fig. 5 regression.
"""

from __future__ import annotations


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
