"""Statistical corrector (the "SC" of TAGE-SC-L), lightweight variant.

The corrector learns statistically-biased branches that TAGE handles
poorly: it sums small signed counters from a per-PC bias table and two
global-history-indexed tables, and flips TAGE's prediction only when
TAGE's provider is weak and the corrector's sum is confident.  This
reproduces the role the SC plays in the paper's 64KB TAGE-SC-L without
the full GEHL machinery.

Only a weak TAGE prediction can be flipped, so the corrector sums its
tables only then, and it keeps nothing per prediction: training at
retirement recomputes the same indices from the packed history folds
the caller saved at predict time (few predictions are ever trained).
"""

from __future__ import annotations

from dataclasses import dataclass

from .history import LANE_BITS, HistoryState


@dataclass(frozen=True)
class StatisticalCorrectorConfig:
    bias_bits: int = 11
    history_bits: int = 10
    history_lengths: tuple[int, ...] = (8, 21)
    counter_bits: int = 6
    flip_threshold: int = 3


class StatisticalCorrector:
    """Confidence-weighted corrector over TAGE's weak predictions."""

    def __init__(
        self,
        config: StatisticalCorrectorConfig | None = None,
        history: HistoryState | None = None,
    ):
        self.config = config or StatisticalCorrectorConfig()
        cfg = self.config
        self.history = history if history is not None else HistoryState()
        # (lane shift, xor key) per history table: each index reads its
        # fold straight out of the packed history word.
        self._lanes = [
            (self.history.register_fold(hlen, cfg.history_bits) * LANE_BITS,
             i * 0x9E37)
            for i, hlen in enumerate(cfg.history_lengths)
        ]
        self._bias = [0] * (1 << cfg.bias_bits)
        self._tables = [
            [0] * (1 << cfg.history_bits) for _ in cfg.history_lengths
        ]
        self._max = (1 << (cfg.counter_bits - 1)) - 1
        self._min = -(1 << (cfg.counter_bits - 1))
        self._bias_mask = (1 << cfg.bias_bits) - 1
        self._hist_mask = (1 << cfg.history_bits) - 1
        self.flips = 0

    def _indices(self, pc: int, folds: int) -> tuple[int, list[int]]:
        pc_bits = pc >> 2
        mask = self._hist_mask
        hist_indices = [
            (pc_bits ^ (folds >> shift) ^ key) & mask for shift, key in self._lanes
        ]
        return pc_bits & self._bias_mask, hist_indices

    def correct(self, pc: int, tage_taken: bool, tage_weak: bool) -> bool:
        """Possibly flip TAGE's weak prediction; returns the direction."""
        if not tage_weak:
            return tage_taken
        bias_idx, hist_indices = self._indices(pc, self.history.folds)
        total = self._bias[bias_idx]
        for table, idx in zip(self._tables, hist_indices):
            total += table[idx]
        if abs(total) >= self.config.flip_threshold:
            sc_taken = total >= 0
            if sc_taken != tage_taken:
                self.flips += 1
            return sc_taken
        return tage_taken

    def train(self, pc: int, folds: int, taken: bool) -> None:
        """Retirement-time counter update at the predict-time indices:
        ``folds`` is the packed history word the prediction saw."""
        delta = 1 if taken else -1
        bias_idx, hist_indices = self._indices(pc, folds)
        self._bias[bias_idx] = _clamp(self._bias[bias_idx] + delta, self._min, self._max)
        for table, idx in zip(self._tables, hist_indices):
            table[idx] = _clamp(table[idx] + delta, self._min, self._max)


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))
