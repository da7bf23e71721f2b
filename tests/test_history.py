"""Unit + property tests for speculative history and its packed folds."""

from hypothesis import given, settings, strategies as st

from repro.frontend import HistoryState, fold_history
from repro.frontend.alternatives import GshareConfig, PerceptronConfig
from repro.frontend.history import LANE_BITS, MAX_HISTORY_BITS
from repro.frontend.ittage import IttageConfig
from repro.frontend.statistical_corrector import StatisticalCorrectorConfig
from repro.frontend.tage import Tage, TageConfig

import pytest


def _predictor_fold_shapes() -> list[tuple[int, int]]:
    """Every (length, width) the default predictors register, plus the
    extremes a lane admits."""
    tage, sc, ittage = TageConfig(), StatisticalCorrectorConfig(), IttageConfig()
    perceptron, gshare = PerceptronConfig(), GshareConfig()
    shapes = [(length, tage.table_index_bits) for length in tage.history_lengths()]
    shapes += [(length, tage.tag_bits) for length in tage.history_lengths()]
    shapes += [(length, sc.history_bits) for length in sc.history_lengths]
    shapes += [(length, ittage.table_index_bits) for length in ittage.history_lengths]
    shapes += [(length, ittage.tag_bits) for length in ittage.history_lengths]
    shapes += [
        (length, perceptron.table_index_bits)
        for length in perceptron.history_lengths
        if length
    ]
    shapes.append((gshare.history_length, gshare.index_bits))
    shapes += [(1, 1), (MAX_HISTORY_BITS, LANE_BITS - 1), (30, 15), (16, 8)]
    return shapes


FOLD_SHAPES = _predictor_fold_shapes()


def _history_with_all_shapes() -> HistoryState:
    h = HistoryState()
    for length, width in FOLD_SHAPES:
        h.register_fold(length, width)
    return h


_HISTORY_OPS = st.one_of(
    st.tuples(st.just("cond"), st.booleans()),
    st.tuples(
        st.just("target"),
        st.integers(min_value=0, max_value=(1 << 20) - 1),
        st.integers(min_value=0, max_value=(1 << 20) - 1),
    ),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("warm"),
        st.integers(min_value=0, max_value=(1 << MAX_HISTORY_BITS) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    ),
)


class TestBasicHistory:
    def test_push_conditional_shifts(self):
        h = HistoryState()
        h.push_conditional(True)
        h.push_conditional(False)
        h.push_conditional(True)
        assert h.ghr & 0b111 == 0b101

    def test_push_target_updates_path_and_ghr(self):
        h = HistoryState()
        h.push_target(0x104, 0x200)
        assert h.ghr & 1 == 1
        assert h.path != 0

    def test_snapshot_restore_roundtrip(self):
        h = HistoryState()
        h.register_fold(8, 4)
        for bit in (1, 0, 1, 1, 0):
            h.push_conditional(bool(bit))
        snap = h.snapshot()
        h.push_conditional(True)
        h.push_target(4, 8)
        h.restore(snap)
        assert h.snapshot() == snap


class TestFoldedRegisters:
    def test_register_after_push_rejected(self):
        h = HistoryState()
        h.push_conditional(True)
        with pytest.raises(ValueError):
            h.register_fold(8, 4)

    def test_bad_spec_rejected(self):
        h = HistoryState()
        with pytest.raises(ValueError):
            h.register_fold(0, 4)
        with pytest.raises(ValueError):
            h.register_fold(8, 0)

    def test_fold_longer_than_the_ghr_rejected(self):
        # Its outgoing bit would never be inside the GHR, so the fold
        # would silently drift from fold_history(ghr, length, width).
        h = HistoryState()
        h.register_fold(MAX_HISTORY_BITS, 10)
        with pytest.raises(ValueError, match="exceeds"):
            h.register_fold(MAX_HISTORY_BITS + 1, 10)
        with pytest.raises(ValueError, match="exceeds"):
            Tage(TageConfig(max_history=1024))

    def test_fold_wider_than_a_lane_rejected(self):
        h = HistoryState()
        h.register_fold(64, LANE_BITS - 1)
        with pytest.raises(ValueError, match="lane"):
            h.register_fold(64, LANE_BITS)

    def test_fold_width_bound(self):
        h = HistoryState()
        idx = h.register_fold(12, 5)
        for _ in range(100):
            h.push_conditional(True)
            assert 0 <= h.fold(idx) < (1 << 5)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_fold_is_pure_function_of_history_window(self, bits):
        """Two histories that agree on the last L bits agree on the fold."""
        length, width = 8, 3
        a = HistoryState()
        ia = a.register_fold(length, width)
        b = HistoryState()
        ib = b.register_fold(length, width)
        # b sees a different prefix first, then the same last `length` bits.
        for bit in (True, False, True, True, False, False, True, False):
            b.push_conditional(bit)
        window = bits[-length:]
        prefix = bits[:-length]
        for bit in prefix:
            a.push_conditional(bit)
        for bit in window:
            a.push_conditional(bit)
            b.push_conditional(bit)
        if len(bits) >= length:
            assert a.fold(ia) == b.fold(ib)

    @given(st.lists(st.booleans(), max_size=100), st.lists(st.booleans(), max_size=20))
    @settings(max_examples=60)
    def test_restore_then_replay_is_deterministic(self, prefix, suffix):
        h = HistoryState()
        idx = h.register_fold(16, 6)
        for bit in prefix:
            h.push_conditional(bit)
        snap = h.snapshot()
        for bit in suffix:
            h.push_conditional(bit)
        after_first = (h.ghr, h.fold(idx))
        h.restore(snap)
        for bit in suffix:
            h.push_conditional(bit)
        assert (h.ghr, h.fold(idx)) == after_first


class TestPackedLanesMatchReference:
    """Differential check of the packed fast path: every lane equals
    fold_history(ghr, length, width), the reference it replaces."""

    @staticmethod
    def _assert_lanes_exact(h: HistoryState) -> None:
        for lane, (length, width) in enumerate(FOLD_SHAPES):
            expected = fold_history(h.ghr, length, width)
            assert h.fold(lane) == expected, (lane, length, width)
            assert (h.folds >> (lane * LANE_BITS)) & ((1 << LANE_BITS) - 1) == expected

    @given(st.lists(_HISTORY_OPS, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_every_lane_equals_fold_history(self, ops):
        h = _history_with_all_shapes()
        snapshots = []
        for op in ops:
            kind = op[0]
            if kind == "cond":
                h.push_conditional(op[1])
            elif kind == "target":
                h.push_target(op[1], op[2])
            elif kind == "snapshot":
                snapshots.append(h.snapshot())
            elif kind == "restore":
                if snapshots:
                    snap = snapshots[op[1] % len(snapshots)]
                    h.restore(snap)
                    assert h.snapshot() == snap
            else:  # warm-start a fresh history, as sampled windows do
                h = _history_with_all_shapes()
                h.warm_replay(op[1], op[2])
                assert h.ghr == op[1] and h.path == op[2]
            self._assert_lanes_exact(h)

    def test_long_run_matches(self):
        h = _history_with_all_shapes()
        for i in range(3 * MAX_HISTORY_BITS):
            if i % 7 == 3:
                h.push_target(i * 4, i * 12)
            else:
                h.push_conditional(i % 3 != 0 or i % 11 == 0)
        self._assert_lanes_exact(h)

    def test_warm_replay_equals_pushing_the_bits(self):
        pushed = _history_with_all_shapes()
        for i in range(MAX_HISTORY_BITS + 40):
            pushed.push_conditional((i * 2654435761) >> 7 & 1)
        warmed = _history_with_all_shapes()
        warmed.warm_replay(pushed.ghr, pushed.path)
        assert warmed.snapshot() == pushed.snapshot()


class TestFoldHistoryFunction:
    def test_zero_cases(self):
        assert fold_history(0b1010, 0, 4) == 0
        assert fold_history(0, 16, 4) == 0

    def test_short_history_identity(self):
        assert fold_history(0b101, 3, 4) == 0b101

    def test_chunked_xor(self):
        # 8 bits folded to 4: low nibble XOR high nibble.
        assert fold_history(0xA5, 8, 4) == 0xA ^ 0x5

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_result_in_range(self, history, length, width):
        assert 0 <= fold_history(history, length, width) < (1 << width)
