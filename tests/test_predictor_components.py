"""Unit tests for loop predictor, statistical corrector, ITTAGE, BTB."""

import random

import pytest

from repro.frontend import (
    Btb,
    BtbConfig,
    HistoryState,
    Ittage,
    LoopPredictor,
    LoopPredictorConfig,
    StatisticalCorrector,
    fold_history,
)


class TestLoopPredictor:
    def test_constant_trip_count_predicted(self):
        lp = LoopPredictor(LoopPredictorConfig(confidence_threshold=2))
        pc = 0x80
        # Train: loops of exactly 4 iterations (3 taken, 1 not-taken).
        for _ in range(4):
            for taken in (True, True, True, False):
                lp.train(pc, taken)
        # Now the predictor should override: T, T, T, NT.
        assert lp.predict(pc) is True
        assert lp.predict(pc) is True
        assert lp.predict(pc) is True
        assert lp.predict(pc) is False

    def test_unconfident_defers(self):
        lp = LoopPredictor()
        assert lp.predict(0x80) is None

    def test_varying_trip_count_never_confident(self):
        lp = LoopPredictor()
        pc = 0x80
        for trip in (3, 5, 2, 7, 4, 6):
            for i in range(trip):
                lp.train(pc, True)
            lp.train(pc, False)
        assert lp.predict(pc) is None

    def test_snapshot_restore(self):
        lp = LoopPredictor(LoopPredictorConfig(confidence_threshold=1))
        pc = 0x80
        for _ in range(3):
            for taken in (True, True, False):
                lp.train(pc, taken)
        snap = lp.snapshot()
        first = lp.predict(pc)
        lp.restore(snap)
        assert lp.predict(pc) == first

    def test_capacity_eviction(self):
        lp = LoopPredictor(LoopPredictorConfig(entries=2))
        for pc in (0x10, 0x20, 0x30):
            lp.train(pc, False)
        assert len(lp._entries) <= 2


class TestStatisticalCorrector:
    def test_biased_branch_flips_weak_tage(self):
        history = HistoryState()
        sc = StatisticalCorrector(history=history)
        pc = 0x44
        for _ in range(30):
            sc.correct(pc, tage_taken=False, tage_weak=True)
            sc.train(pc, history.folds, True)  # branch is actually always taken
        taken = sc.correct(pc, tage_taken=False, tage_weak=True)
        assert taken is True
        assert sc.flips > 0

    def test_strong_tage_never_flipped(self):
        history = HistoryState()
        sc = StatisticalCorrector(history=history)
        pc = 0x44
        for _ in range(30):
            sc.correct(pc, tage_taken=False, tage_weak=False)
            sc.train(pc, history.folds, True)
        taken = sc.correct(pc, tage_taken=False, tage_weak=False)
        assert taken is False

    def test_counters_saturate(self):
        history = HistoryState()
        sc = StatisticalCorrector(history=history)
        for _ in range(200):
            sc.correct(0x44, True, True)
            sc.train(0x44, history.folds, True)
        assert max(sc._bias) <= 31


class TestIttage:
    def test_learns_single_target(self):
        history = HistoryState()
        it = Ittage(history=history)
        pc, target = 0x50, 0x400
        for _ in range(5):
            pred = it.predict(pc)
            it.train(pc, target, pred)
        assert it.predict(pc).target == target

    def test_history_correlated_targets(self):
        """Targets alternating with a preceding branch direction are
        separable using global history."""
        history = HistoryState()
        it = Ittage(history=history)
        pc = 0x50
        missed_late = 0
        for i in range(400):
            context = i % 2 == 0
            history.push_conditional(context)
            target = 0x400 if context else 0x800
            pred = it.predict(pc)
            if i > 300 and pred.target != target:
                missed_late += 1
            it.train(pc, target, pred)
        assert missed_late <= 6

    def test_unknown_pc_returns_none(self):
        it = Ittage(history=HistoryState())
        assert it.predict(0x77 << 2).target is None


class TestPackedLaneReaders:
    """SC and ITTAGE read their folds as lanes of the packed history word;
    their indices must equal the per-fold loops computed from
    fold_history, with ITTAGE's path folds cached per path value."""

    @staticmethod
    def _walk(history, rng, steps):
        for _ in range(steps):
            if rng.random() < 0.3:
                history.push_target(rng.randrange(1 << 16) << 2, rng.randrange(1 << 16) << 2)
            else:
                history.push_conditional(rng.random() < 0.5)

    def test_ittage_keys(self):
        history = HistoryState()
        StatisticalCorrector(history=history)  # lanes ahead of ITTAGE
        it = Ittage(history=history)
        cfg = it.config
        rng = random.Random(11)
        for _ in range(200):
            self._walk(history, rng, rng.randrange(1, 6))
            pc = rng.randrange(1 << 20) << 2
            pc_bits = pc >> 2
            indices, tags = [], []
            for i, hlen in enumerate(cfg.history_lengths):
                fpath = fold_history(history.path, min(hlen, 16), cfg.table_index_bits)
                indices.append(
                    (pc_bits ^ (pc_bits >> (i + 2))
                     ^ fold_history(history.ghr, hlen, cfg.table_index_bits) ^ fpath)
                    & ((1 << cfg.table_index_bits) - 1)
                )
                tags.append(
                    (pc_bits ^ fold_history(history.ghr, hlen, cfg.tag_bits)
                     ^ (fold_history(history.path, min(hlen, 12), cfg.tag_bits - 1) << 1))
                    & ((1 << cfg.tag_bits) - 1)
                )
            assert it._keys(pc) == (tuple(indices), tuple(tags))

    def test_sc_indices(self):
        history = HistoryState()
        history.register_fold(100, 12)  # a lane ahead of the corrector
        sc = StatisticalCorrector(history=history)
        cfg = sc.config
        rng = random.Random(12)
        for _ in range(200):
            self._walk(history, rng, rng.randrange(1, 6))
            pc = rng.randrange(1 << 20) << 2
            pc_bits = pc >> 2
            expected = [
                (pc_bits ^ fold_history(history.ghr, hlen, cfg.history_bits) ^ i * 0x9E37)
                & ((1 << cfg.history_bits) - 1)
                for i, hlen in enumerate(cfg.history_lengths)
            ]
            assert sc._indices(pc, history.folds) == (
                pc_bits & ((1 << cfg.bias_bits) - 1),
                expected,
            )


class TestBtb:
    def test_miss_then_hit(self):
        btb = Btb()
        assert btb.lookup(0x100) is None
        btb.install(0x100, 0x200)
        assert btb.lookup(0x100) == 0x200

    def test_update_existing(self):
        btb = Btb()
        btb.install(0x100, 0x200)
        btb.install(0x100, 0x300)
        assert btb.lookup(0x100) == 0x300

    def test_capacity_eviction_lru(self):
        btb = Btb(BtbConfig(entries=8, ways=2))  # 4 sets
        set_stride = 4 * 4  # same set every 4 words
        pcs = [0x100 + i * set_stride for i in range(3)]
        for pc in pcs:
            btb.install(pc, pc + 4)
        assert btb.lookup(pcs[0]) is None  # evicted (LRU)
        assert btb.lookup(pcs[2]) is not None

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Btb(BtbConfig(entries=12, ways=2))
