"""In-flight branch queue (IFBQ).

Tracks every in-flight main-thread branch that can mispredict, keyed by
its synchronized timestamp (sequence number).  The TEA thread writes
its precomputed direction/target into the entry when a TEA branch
resolves (paper §IV-F); the main-thread branch reads the entry at
execution to check whether its misprediction was already resolved —
and to detect incorrect precomputations (the fail-safe path).

An entry is the branch's own :class:`~repro.frontend.decoupled.BranchInfo`,
the one record the predictor builds per branch: it carries the
prediction, the recovery state and the queue state together.  Being in
the queue is what makes a branch in flight: :meth:`get` finds it until
it retires or is squashed.
"""

from __future__ import annotations

from ..frontend.decoupled import BranchInfo


class InFlightBranchQueue:
    """seq -> BranchInfo map with timestamp-ordered flush support."""

    def __init__(self) -> None:
        self._entries: dict[int, BranchInfo] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, branch: BranchInfo) -> BranchInfo:
        self._entries[branch.seq] = branch
        return branch

    def get(self, seq: int) -> BranchInfo | None:
        return self._entries.get(seq)

    def remove(self, seq: int) -> None:
        self._entries.pop(seq, None)

    def squash_younger(self, seq: int) -> list[BranchInfo]:
        """Drop entries younger than ``seq``; returns what was removed."""
        doomed = [s for s in self._entries if s > seq]
        removed = []
        for s in doomed:
            removed.append(self._entries.pop(s))
        return removed

    def entries_younger(self, seq: int) -> list[BranchInfo]:
        return [e for s, e in self._entries.items() if s > seq]
