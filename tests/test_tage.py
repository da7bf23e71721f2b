"""Unit tests for the TAGE predictor and its trainability."""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.frontend import HistoryState, Tage, TageConfig, fold_history
from repro.frontend.history import MAX_HISTORY_BITS


def make_tage(**kwargs):
    history = HistoryState()
    return Tage(TageConfig(**kwargs), history), history


def run_stream(tage, history, outcomes, pc=0x40):
    """Feed (predict, update history, train) for an outcome stream;
    returns the number of mispredictions."""
    mispredicts = 0
    for taken in outcomes:
        pred = tage.predict(pc)
        if pred.taken != taken:
            mispredicts += 1
        history.push_conditional(taken)
        tage.train(pc, taken, pred)
    return mispredicts


class TestConfig:
    def test_history_lengths_geometric_and_increasing(self):
        lengths = TageConfig().history_lengths()
        assert lengths[0] == 4
        assert lengths[-1] == 256
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_table(self):
        assert TageConfig(num_tables=1).history_lengths() == [4]


class TestLearning:
    def test_always_taken_branch_converges(self):
        tage, history = make_tage()
        missed = run_stream(tage, history, [True] * 200)
        assert missed <= 5  # cold start only

    def test_alternating_pattern_learned(self):
        tage, history = make_tage()
        pattern = [True, False] * 200
        run_stream(tage, history, pattern)
        # The tail must be essentially perfect once tagged tables train.
        tail_missed = run_stream(tage, history, pattern[:100])
        assert tail_missed <= 5

    def test_long_period_pattern_uses_long_history(self):
        tage, history = make_tage()
        period = [True] * 7 + [False]
        stream = period * 120
        run_stream(tage, history, stream)
        tail_missed = run_stream(tage, history, period * 20)
        assert tail_missed <= 6

    def test_random_branch_stays_hard(self):
        """An unpredictable branch must keep mispredicting — this is
        the property the whole paper depends on (H2P branches)."""
        tage, history = make_tage()
        rng = random.Random(3)
        outcomes = [rng.random() < 0.5 for _ in range(800)]
        missed = run_stream(tage, history, outcomes)
        assert missed > 0.3 * len(outcomes)

    def test_distinct_pcs_do_not_destructively_alias(self):
        tage, history = make_tage()
        for _ in range(300):
            for pc, taken in ((0x100, True), (0x200, False)):
                pred = tage.predict(pc)
                history.push_conditional(taken)
                tage.train(pc, taken, pred)
        assert tage.predict(0x100).taken is True
        assert tage.predict(0x200).taken is False


class TestInternals:
    def test_allocation_on_mispredict(self):
        tage, history = make_tage()
        run_stream(tage, history, [True, False] * 50)
        assert tage.allocations > 0

    def test_prediction_metadata_complete(self):
        tage, history = make_tage()
        pred = tage.predict(0x40)
        assert len(pred.indices) == tage.config.num_tables
        assert len(pred.tags) == tage.config.num_tables
        assert pred.provider == -1  # nothing allocated yet

    def test_useful_counter_reset_period(self):
        tage, history = make_tage(useful_reset_period=64)
        run_stream(tage, history, [True, False] * 100)
        # Just exercising the reset path; counters must stay in range.
        for table in tage.tables:
            for entry in table:
                assert 0 <= entry.useful <= 3


def reference_keys(tage, pc):
    """The per-table key loop the lane-parallel computation replaced,
    reading each fold from its definition instead of a lane."""
    cfg = tage.config
    history = tage.history
    idx_mask = (1 << cfg.table_index_bits) - 1
    tag_mask = (1 << cfg.tag_bits) - 1
    pc_bits = pc >> 2
    indices, tags = [], []
    for i, hlen in enumerate(tage.histories):
        folded_idx = fold_history(history.ghr, hlen, cfg.table_index_bits)
        folded_tag = fold_history(history.ghr, hlen, cfg.tag_bits)
        path_fold = fold_history(history.path, min(hlen, 16), cfg.table_index_bits)
        indices.append(
            (pc_bits ^ (pc_bits >> (i + 1)) ^ folded_idx ^ path_fold) & idx_mask
        )
        tags.append((pc_bits ^ folded_tag ^ (folded_idx << 1)) & tag_mask)
    return tuple(indices), tuple(tags)


_TAGE_CONFIGS = st.builds(
    TageConfig,
    num_tables=st.integers(min_value=1, max_value=12),
    table_index_bits=st.integers(min_value=4, max_value=15),
    tag_bits=st.integers(min_value=4, max_value=15),
    min_history=st.integers(min_value=1, max_value=8),
    max_history=st.integers(min_value=16, max_value=MAX_HISTORY_BITS),
)


class TestLaneParallelKeys:
    """Differential check: Tage._compute_keys against the per-table loop."""

    @given(
        config=st.one_of(st.just(TageConfig()), _TAGE_CONFIGS),
        ghr=st.integers(min_value=0, max_value=(1 << MAX_HISTORY_BITS) - 1),
        path=st.integers(min_value=0, max_value=(1 << 32) - 1),
        pcs=st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=1, max_size=6,
        ),
        lead=st.integers(min_value=0, max_value=3),
        pushes=st.lists(
            st.one_of(
                st.booleans(),
                st.tuples(
                    st.integers(min_value=0, max_value=(1 << 20) - 1),
                    st.integers(min_value=0, max_value=(1 << 20) - 1),
                ),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_keys_equal_the_per_table_loop(
        self, config, ghr, path, pcs, lead, pushes
    ):
        assume(max(config.history_lengths()) <= MAX_HISTORY_BITS)
        history = HistoryState()
        # Folds registered ahead of TAGE move its lanes up the word.
        for length in range(1, lead + 1):
            history.register_fold(length * 5, 7)
        tage = Tage(config, history)
        history.warm_replay(ghr, path)
        for pc in pcs:
            assert tage._compute_keys(pc) == reference_keys(tage, pc)
        # Keys follow the history (and the cached path term the path).
        for push in pushes:
            if isinstance(push, tuple):
                history.push_target(*push)
            else:
                history.push_conditional(push)
            for pc in pcs:
                assert tage._compute_keys(pc) == reference_keys(tage, pc)

    def test_prediction_carries_the_reference_keys(self):
        tage, history = make_tage()
        rng = random.Random(5)
        for _ in range(300):
            pc = rng.randrange(1 << 16) << 2
            pred = tage.predict(pc)
            assert (pred.indices, pred.tags) == reference_keys(tage, pc)
            taken = rng.random() < 0.5
            tage.train(pc, taken, pred)
            if rng.random() < 0.3:
                history.push_target(pc, rng.randrange(1 << 16) << 2)
            else:
                history.push_conditional(taken)
