"""History-based indirect target predictor (ITTAGE-style).

Predicts targets of ``jr``/``callr`` indirect jumps: a last-target base
table plus tagged components indexed by folded global/path history that
store full targets.  Returns are handled separately by the RAS.  This
is the paper's "history-based indirect branch predictor" (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

from .history import LANE_BITS, HistoryState, fold_history


@dataclass(frozen=True)
class IttageConfig:
    num_tables: int = 4
    table_index_bits: int = 8
    tag_bits: int = 9
    history_lengths: tuple[int, ...] = (8, 32, 96, 192)
    base_index_bits: int = 9
    counter_max: int = 3


class _IttageEntry:
    __slots__ = ("tag", "target", "ctr", "useful")

    def __init__(self) -> None:
        self.tag = -1
        self.target = 0
        self.ctr = 0
        self.useful = 0


@dataclass(slots=True)
class IttagePrediction:
    """Predict-time metadata for retirement training."""

    target: int | None
    provider: int = -1
    indices: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()
    base_index: int = 0


class Ittage:
    """Tagged geometric-history indirect target predictor."""

    def __init__(
        self,
        config: IttageConfig | None = None,
        history: HistoryState | None = None,
    ):
        self.config = config or IttageConfig()
        cfg = self.config
        if len(cfg.history_lengths) != cfg.num_tables:
            raise ValueError("history_lengths must match num_tables")
        self.history = history if history is not None else HistoryState()
        self._idx_folds = [
            self.history.register_fold(hlen, cfg.table_index_bits)
            for hlen in cfg.history_lengths
        ]
        self._tag_folds = [
            self.history.register_fold(hlen, cfg.tag_bits)
            for hlen in cfg.history_lengths
        ]
        size = 1 << cfg.table_index_bits
        self.tables = [
            [_IttageEntry() for _ in range(size)] for _ in range(cfg.num_tables)
        ]
        self.base_targets: list[int | None] = [None] * (1 << cfg.base_index_bits)
        self._idx_mask = (1 << cfg.table_index_bits) - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        # Folded path history per table, cached per path value (the
        # path only changes on a taken transfer).
        self._path_key: int | None = None
        self._path_folds: list[tuple[int, int, int, int]] = []
        self.predictions = 0
        self.allocations = 0

    def _keys(self, pc: int):
        history = self.history
        path = history.path
        if path != self._path_key:
            self._path_folds = self._fold_path(path)
            self._path_key = path
        folds = history.folds
        idx_mask = self._idx_mask
        tag_mask = self._tag_mask
        pc_bits = pc >> 2
        indices, tags = [], []
        for i, (idx_shift, tag_shift, idx_path, tag_path) in enumerate(
            self._path_folds
        ):
            indices.append(
                (pc_bits ^ (pc_bits >> (i + 2)) ^ (folds >> idx_shift) ^ idx_path)
                & idx_mask
            )
            tags.append((pc_bits ^ (folds >> tag_shift) ^ tag_path) & tag_mask)
        return tuple(indices), tuple(tags)

    def _fold_path(self, path: int) -> list[tuple[int, int, int, int]]:
        """Per table: (index lane shift, tag lane shift, index path
        fold, tag path fold) — rebuilt once per path value."""
        cfg = self.config
        return [
            (
                idx_lane * LANE_BITS,
                tag_lane * LANE_BITS,
                fold_history(path, min(hlen, 16), cfg.table_index_bits),
                fold_history(path, min(hlen, 12), cfg.tag_bits - 1) << 1,
            )
            for hlen, idx_lane, tag_lane in zip(
                cfg.history_lengths, self._idx_folds, self._tag_folds
            )
        ]

    def predict(self, pc: int) -> IttagePrediction:
        """Predict the target of the indirect branch at ``pc``.

        ``target`` is ``None`` when nothing is known yet (first sight of
        the branch) — the frontend then predicts fallthrough and takes
        the misprediction.
        """
        self.predictions += 1
        indices, tags = self._keys(pc)
        base_index = (pc >> 2) & ((1 << self.config.base_index_bits) - 1)
        for i in range(self.config.num_tables - 1, -1, -1):
            entry = self.tables[i][indices[i]]
            if entry.tag == tags[i]:
                return IttagePrediction(
                    target=entry.target,
                    provider=i,
                    indices=indices,
                    tags=tags,
                    base_index=base_index,
                )
        return IttagePrediction(
            target=self.base_targets[base_index],
            provider=-1,
            indices=indices,
            tags=tags,
            base_index=base_index,
        )

    def train(self, pc: int, actual_target: int, pred: IttagePrediction) -> None:
        """Retirement-time update; allocates on target mispredictions."""
        cfg = self.config
        correct = pred.target == actual_target
        if pred.provider >= 0:
            entry = self.tables[pred.provider][pred.indices[pred.provider]]
            if entry.tag == pred.tags[pred.provider]:
                if entry.target == actual_target:
                    entry.ctr = min(entry.ctr + 1, cfg.counter_max)
                    entry.useful = min(entry.useful + 1, 3)
                else:
                    if entry.ctr > 0:
                        entry.ctr -= 1
                    else:
                        entry.target = actual_target
                        entry.ctr = 1
                    entry.useful = max(entry.useful - 1, 0)
        else:
            self.base_targets[pred.base_index] = actual_target
        if not correct:
            self._allocate(pred, actual_target)

    def _allocate(self, pred: IttagePrediction, target: int) -> None:
        start = pred.provider + 1
        for i in range(start, self.config.num_tables):
            entry = self.tables[i][pred.indices[i]]
            if entry.useful == 0:
                entry.tag = pred.tags[i]
                entry.target = target
                entry.ctr = 1
                self.allocations += 1
                return
        for i in range(start, self.config.num_tables):
            entry = self.tables[i][pred.indices[i]]
            entry.useful = max(entry.useful - 1, 0)
