"""TAGE conditional branch predictor (Seznec, MICRO 2011).

A base bimodal table plus ``num_tables`` partially-tagged components
with geometrically increasing history lengths.  The provider is the
longest-history component whose tag matches; a "use alt on newly
allocated" counter arbitrates between the provider and the alternate
prediction when the provider entry is weak.

Prediction happens in the decoupled frontend (speculative history);
training happens at *retirement* using the :class:`TagePrediction`
metadata captured at prediction time — the same structure Scarab and
other decoupled-frontend simulators use, and the carrier of the paper's
"synchronized timestamps" (the metadata rides in the in-flight branch
queue entry).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .history import LANE_BITS, HistoryState

#: Path history bits a component folds, at most (one lane's worth).
_PATH_FOLD_BITS = 16
_PATH_FOLD_MASK = (1 << _PATH_FOLD_BITS) - 1


@dataclass(frozen=True)
class TageConfig:
    """Sizing knobs; defaults model a scaled-down 64KB TAGE-SC-L."""

    num_tables: int = 8
    table_index_bits: int = 10
    tag_bits: int = 9
    min_history: int = 4
    max_history: int = 256
    base_index_bits: int = 12
    counter_bits: int = 3
    useful_bits: int = 2
    use_alt_bits: int = 4
    useful_reset_period: int = 64 * 1024

    def history_lengths(self) -> list[int]:
        """Geometric history length series (min..max over num_tables)."""
        if self.num_tables == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1 / (self.num_tables - 1))
        lengths = []
        for i in range(self.num_tables):
            length = int(round(self.min_history * ratio**i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return lengths


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self) -> None:
        self.tag = -1
        self.ctr = 0      # signed: >=0 predicts taken
        self.useful = 0


@dataclass(slots=True)
class TagePrediction:
    """Metadata captured at predict time, needed to train at retire."""

    taken: bool
    provider: int = -1            # component index, -1 = bimodal base
    provider_index: int = 0
    provider_tag: int = 0
    alt_taken: bool = False
    provider_weak: bool = True
    indices: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()
    base_index: int = 0
    # Filled in by the TAGE-SC-L wrapper (dedicated slots: the extra
    # dict was a measurable allocation cost per prediction).
    final_taken: bool | None = None
    loop_used: bool = False
    is_backward: bool = False
    # The packed history folds at predict time when the statistical
    # corrector was consulted (None when it was not): the SC
    # recomputes its indices from them at retirement.
    sc_folds: int | None = None
    # Scratch space for the alternative (ablation) predictors; None by
    # default so the common TAGE-SC-L path allocates no dict.
    extra: dict | None = None


class Tage:
    """The TAGE predictor proper (no SC/L — see :mod:`tagescl`).

    The predictor is bound to one :class:`HistoryState`, on which it
    registers two folds per component at construction (index and tag)
    and reads them as consecutive lanes of the packed history word.
    """

    def __init__(
        self,
        config: TageConfig | None = None,
        history: HistoryState | None = None,
    ):
        self.config = config or TageConfig()
        cfg = self.config
        self.history = history if history is not None else HistoryState()
        self.histories = cfg.history_lengths()
        self._idx_folds = [
            self.history.register_fold(hlen, cfg.table_index_bits)
            for hlen in self.histories
        ]
        self._tag_folds = [
            self.history.register_fold(hlen, cfg.tag_bits)
            for hlen in self.histories
        ]
        size = 1 << cfg.table_index_bits
        self.tables: list[list[_TaggedEntry]] = [
            [_TaggedEntry() for _ in range(size)] for _ in range(cfg.num_tables)
        ]
        self.base = [0] * (1 << cfg.base_index_bits)  # 2-bit counters, 0..3
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        # Lane-parallel keys (_compute_keys): the index folds occupy
        # lanes [first, first + n) of the packed history word and the
        # tag folds the next n lanes, so one XOR of the shifted word
        # with a per-PC term and a per-path term yields every index
        # and tag at once, masked per lane and unpacked as shorts.
        n = cfg.num_tables
        first = self._idx_folds[0]
        assert self._idx_folds + self._tag_folds == list(
            range(first, first + 2 * n)
        ), "TAGE folds must occupy consecutive lanes"
        self._idx_mask = (1 << cfg.table_index_bits) - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._lane_shift = first * LANE_BITS
        self._idx_lanes = (1 << (n * LANE_BITS)) - 1
        # An index fold shifted onto its table's tag lane, one bit up.
        self._tag_shift = n * LANE_BITS + 1
        self._key_mask = 0
        for i in range(n):
            self._key_mask |= self._idx_mask << (i * LANE_BITS)
            self._key_mask |= self._tag_mask << ((n + i) * LANE_BITS)
        self._key_bytes = 2 * n * LANE_BITS // 8
        self._tags_offset = n * LANE_BITS // 8
        self._unpack = struct.Struct(f"<{n}H").unpack_from
        # Per-PC key terms, memoized per static branch PC.
        self._pc_terms: dict[int, int] = {}
        # The folded *path* history term: the path only changes on a
        # taken transfer, while keys are computed for every
        # conditional, so it is rebuilt once per path value.
        self._lane_ones = 0
        self._path_caps = 0
        self._path_rest = 0
        for i, hlen in enumerate(self.histories):
            self._lane_ones |= 1 << (i * LANE_BITS)
            self._path_caps |= ((1 << min(hlen, _PATH_FOLD_BITS)) - 1) << (
                i * LANE_BITS
            )
            self._path_rest |= ((1 << (LANE_BITS - cfg.table_index_bits)) - 1) << (
                i * LANE_BITS
            )
        self._path_key: int | None = None
        self._path_term = 0
        self._rev_tables = tuple(range(cfg.num_tables - 1, -1, -1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        self._use_alt_mid = 1 << (cfg.use_alt_bits - 1)
        self.use_alt_on_na = 1 << (cfg.use_alt_bits - 1)
        self._use_alt_max = (1 << cfg.use_alt_bits) - 1
        self._updates = 0
        self.predictions = 0
        self.allocations = 0

    # ------------------------------------------------------------------
    def _compute_keys(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        history = self.history
        path = history.path
        if path != self._path_key:
            self._path_term = self._fold_path(path)
            self._path_key = path
        pc_term = self._pc_terms.get(pc)
        if pc_term is None:
            pc_term = self._pc_terms[pc] = self._pc_term(pc)
        lanes = history.folds >> self._lane_shift
        keys = (
            lanes
            # The second tag hash reuses the index fold shifted by one —
            # one register fewer than Seznec's tag' with equivalent
            # mixing quality at these table sizes.
            ^ ((lanes & self._idx_lanes) << self._tag_shift)
            ^ pc_term
            ^ self._path_term
        ) & self._key_mask
        buf = keys.to_bytes(self._key_bytes, "little")
        return self._unpack(buf), self._unpack(buf, self._tags_offset)

    def _pc_term(self, pc: int) -> int:
        """Index lanes: ``pc ^ (pc >> (i + 1))``; tag lanes: ``pc``."""
        n = self.config.num_tables
        pc_bits = pc >> 2
        term = 0
        for i in range(n):
            term |= ((pc_bits ^ (pc_bits >> (i + 1))) & self._idx_mask) << (
                i * LANE_BITS
            )
            term |= (pc_bits & self._tag_mask) << ((n + i) * LANE_BITS)
        return term

    def _fold_path(self, path: int) -> int:
        """Index lanes: ``fold_history(path, min(length, 16), index
        bits)`` per table, all lanes at once — copy the path into every
        lane, cut each copy to its length, then XOR the chunks down."""
        lanes = ((path & _PATH_FOLD_MASK) * self._lane_ones) & self._path_caps
        shift = self.config.table_index_bits
        term = 0
        while lanes:
            term ^= lanes & self._key_mask
            # Drop the bits the shift pulls in from the next lane up.
            lanes = (lanes >> shift) & self._path_rest
        return term

    def _base_index(self, pc: int) -> int:
        return (pc >> 2) & ((1 << self.config.base_index_bits) - 1)

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> TagePrediction:
        """Predict the direction of the conditional branch at ``pc``."""
        self.predictions += 1
        indices, tags = self._compute_keys(pc)
        base_index = (pc >> 2) & (len(self.base) - 1)
        base_taken = self.base[base_index] >= 2

        tables = self.tables
        provider = -1
        alt = -1
        for i in self._rev_tables:
            if tables[i][indices[i]].tag == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break

        if provider < 0:
            return TagePrediction(
                base_taken, -1, 0, 0, base_taken, True, indices, tags, base_index
            )

        provider_index = indices[provider]
        ctr = tables[provider][provider_index].ctr
        weak = ctr == -1 or ctr == 0
        if alt >= 0:
            alt_taken = tables[alt][indices[alt]].ctr >= 0
        else:
            alt_taken = base_taken
        if weak and self.use_alt_on_na >= self._use_alt_mid:
            taken = alt_taken
        else:
            taken = ctr >= 0
        return TagePrediction(
            taken,
            provider,
            provider_index,
            tags[provider],
            alt_taken,
            weak,
            indices,
            tags,
            base_index,
        )

    # ------------------------------------------------------------------
    def train(self, pc: int, taken: bool, pred: TagePrediction) -> None:
        """Retirement-time update with the metadata from predict time."""
        cfg = self.config
        self._updates += 1
        if self._updates % cfg.useful_reset_period == 0:
            self._reset_useful()

        if pred.provider >= 0:
            entry = self.tables[pred.provider][pred.provider_index]
            # Guard against the entry having been reallocated by a
            # younger (wrong-path-trained) branch; tags disambiguate.
            if entry.tag == pred.provider_tag:
                self._update_ctr(entry, taken)
                if pred.provider_weak:
                    # Track whether the alternate would have been better.
                    if pred.alt_taken == taken and pred.taken != taken:
                        self.use_alt_on_na = min(
                            self.use_alt_on_na + 1, self._use_alt_max
                        )
                    elif pred.alt_taken != taken and pred.taken == taken:
                        self.use_alt_on_na = max(self.use_alt_on_na - 1, 0)
                if pred.taken != pred.alt_taken:
                    if pred.taken == taken:
                        entry.useful = min(entry.useful + 1, self._useful_max)
                    else:
                        entry.useful = max(entry.useful - 1, 0)
        else:
            self._update_base(pred.base_index, taken)

        mispredicted = pred.taken != taken
        if mispredicted:
            self._allocate(pred, taken)

    def _update_base(self, index: int, taken: bool) -> None:
        ctr = self.base[index]
        self.base[index] = min(ctr + 1, 3) if taken else max(ctr - 1, 0)

    def _update_ctr(self, entry: _TaggedEntry, taken: bool) -> None:
        if taken:
            entry.ctr = min(entry.ctr + 1, self._ctr_max)
        else:
            entry.ctr = max(entry.ctr - 1, self._ctr_min)

    def _allocate(self, pred: TagePrediction, taken: bool) -> None:
        """On a misprediction, allocate in a longer-history component."""
        start = pred.provider + 1
        candidates = [
            i
            for i in range(start, self.config.num_tables)
            if self.tables[i][pred.indices[i]].useful == 0
        ]
        if not candidates:
            for i in range(start, self.config.num_tables):
                entry = self.tables[i][pred.indices[i]]
                entry.useful = max(entry.useful - 1, 0)
            return
        target = candidates[0]
        entry = self.tables[target][pred.indices[target]]
        entry.tag = pred.tags[target]
        entry.ctr = 0 if taken else -1
        entry.useful = 0
        self.allocations += 1

    def _reset_useful(self) -> None:
        for table in self.tables:
            for entry in table:
                entry.useful >>= 1
