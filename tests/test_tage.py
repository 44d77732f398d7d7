"""Unit tests for the TAGE and bimodal direction predictors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.isa import BranchKind
from repro.uarch.tage import BimodalPredictor, FoldSequences, \
    PrecomputedHistoryTage, TagePredictor, _FoldedHistory, \
    fold_sequence_arrays, precompute_fold_sequences


def _run(predictor, outcomes, pc=0x4000):
    wrong = 0
    for taken in outcomes:
        predicted = predictor.predict(pc)
        predictor.update(pc, taken)
        wrong += predicted != taken
    return wrong / len(outcomes)


class TestFoldedHistory:
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
           hist_len=st.sampled_from([5, 10, 20, 50]),
           folded_len=st.sampled_from([7, 9, 10]))
    @settings(max_examples=60, deadline=None)
    def test_matches_recomputed_fold(self, bits, hist_len, folded_len):
        """Incremental fold equals XOR-folding the raw history window."""
        fold = _FoldedHistory(hist_len, folded_len)
        window = [0] * hist_len  # window[0] is newest
        for bit in bits:
            dropped = window[-1]
            window = [bit] + window[:-1]
            fold.update(bit, dropped)
            # Reference: value = XOR of folded chunks, where history bit i
            # (newest = 0) contributes at position i mod folded_len ...
            # matching the circular-shift-register semantics: newest bit
            # enters at bit 0 and shifts left once per update.
            reference = 0
            for i, b in enumerate(window):  # i updates ago
                if b:
                    # After i further shifts, the bit originally at
                    # position 0 sits at position i (mod wrap-with-xor).
                    reference ^= _shift_position(i, folded_len)
            assert fold.value == reference


def _shift_position(age: int, folded_len: int) -> int:
    """Value contributed by a set bit inserted *age* updates ago."""
    value = 1  # inserted at bit 0
    for _ in range(age):
        value <<= 1
        if value >> folded_len:
            value = (value & ((1 << folded_len) - 1)) ^ 1
    return value


class TestTagePatterns:
    def test_learns_alternating(self):
        outcomes = [i % 2 == 0 for i in range(2000)]
        assert _run(TagePredictor(), outcomes) < 0.05

    def test_learns_loop_exits(self):
        outcomes = [(i % 6) != 5 for i in range(3000)]
        assert _run(TagePredictor(), outcomes) < 0.02

    def test_biased_branch_near_floor(self):
        rng = np.random.default_rng(1)
        outcomes = list(rng.random(3000) < 0.95)
        assert _run(TagePredictor(), outcomes) < 0.12

    def test_beats_bimodal_on_patterns(self):
        outcomes = [(i % 4) != 3 for i in range(2000)]
        tage = _run(TagePredictor(), outcomes)
        bimodal = _run(BimodalPredictor(), outcomes)
        assert tage < bimodal

    def test_interleaved_branches_do_not_alias_destructively(self):
        tage = TagePredictor()
        rng = np.random.default_rng(2)
        pcs = [0x1000 + i * 4 for i in range(32)]
        wrong = total = 0
        for it in range(6000):
            pc = pcs[it % len(pcs)]
            taken = bool(rng.random() < (0.98 if pc % 8 else 0.02))
            predicted = tage.predict(pc)
            tage.update(pc, taken)
            wrong += predicted != taken
            total += 1
        assert wrong / total < 0.1

    def test_accuracy_property(self):
        tage = TagePredictor()
        assert tage.accuracy == 0.0
        _run(tage, [True] * 100)
        assert tage.accuracy > 0.9

    def test_cold_update_trains_without_prediction(self):
        tage = TagePredictor()
        for _ in range(10):
            tage.update(0x1000, True)  # no preceding predict
        assert tage.predict(0x1000) is True

    def test_storage_within_budget(self):
        tage = TagePredictor()
        assert tage.storage_bits() <= 8 * 1024 * 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            TagePredictor(bimodal_entries=1000)  # not a power of two
        with pytest.raises(ConfigError):
            TagePredictor(histories=(50, 20, 8, 5))  # not increasing


class TestFusedAndPrecomputed:
    """The fused and trace-replay paths are bit-identical to the split
    predict/update protocol."""

    COND = int(BranchKind.COND)
    JUMP = int(BranchKind.JUMP)

    def _stream(self, n=4000, seed=9):
        rng = np.random.default_rng(seed)
        pcs = [0x4000 + int(i) * 4 for i in rng.integers(0, 96, size=n)]
        kinds = [self.COND if r < 0.8 else self.JUMP
                 for r in rng.random(n)]
        takens = [bool((pc >> 4) % 3 != 0) ^ bool(rng.random() < 0.05)
                  for pc in pcs]
        return pcs, kinds, takens

    def test_predict_update_matches_split_protocol(self):
        pcs, kinds, takens = self._stream()
        split, fused = TagePredictor(), TagePredictor()
        for pc, kind, taken in zip(pcs, kinds, takens):
            if kind != self.COND:
                continue
            expected = split.predict(pc)
            split.update(pc, taken)
            assert fused.predict_update(pc, taken) == expected
        assert fused.mispredictions == split.mispredictions

    def test_precomputed_history_matches_dynamic(self):
        pcs, kinds, takens = self._stream()
        seqs = precompute_fold_sequences(kinds, takens, self.COND)
        dynamic = TagePredictor()
        replay = PrecomputedHistoryTage(seqs)
        for pc, kind, taken in zip(pcs, kinds, takens):
            if kind != self.COND:
                continue
            expected = dynamic.predict(pc)
            dynamic.update(pc, taken)
            assert replay.predict_update(pc, taken) == expected
        assert replay.mispredictions == dynamic.mispredictions

    def test_precomputed_rejects_split_protocol(self):
        pcs, kinds, takens = self._stream()
        replay = PrecomputedHistoryTage(
            precompute_fold_sequences(kinds, takens, self.COND))
        with pytest.raises(NotImplementedError):
            replay.predict(pcs[0])

    def test_cold_update_matches_dynamic(self):
        """A cold train (update without predict) advances the replay's
        history exactly like the dynamic predictor's."""
        pcs, kinds, takens = self._stream(seed=11)
        seqs = precompute_fold_sequences(kinds, takens, self.COND)
        dynamic = TagePredictor()
        replay = PrecomputedHistoryTage(seqs)
        step = 0
        for pc, kind, taken in zip(pcs, kinds, takens):
            if kind != self.COND:
                continue
            step += 1
            if step % 5 == 0:
                dynamic.update(pc, taken)
                replay.update(pc, taken)
                continue
            assert replay.predict_update(pc, taken) \
                == dynamic.predict_update(pc, taken)
        assert replay.mispredictions == dynamic.mispredictions

    def test_rejects_mismatched_sequences(self):
        pcs, kinds, takens = self._stream()
        seqs = precompute_fold_sequences(kinds, takens, self.COND)
        with pytest.raises(ConfigError):
            # Same table count, different unpack geometry: must refuse
            # rather than silently mis-unpack every packed fold.
            PrecomputedHistoryTage(seqs, tagged_entries=2048)
        with pytest.raises(ConfigError):
            PrecomputedHistoryTage(seqs._replace(seqs=seqs.seqs[:2]))


def _reference_fold_sequences(kinds, takens, cond_kind,
                              histories=TagePredictor.DEFAULT_HISTORIES,
                              index_bits=10, tag_bits=9) -> FoldSequences:
    """The scalar fold recurrence, step by step (the reference).

    Replays :meth:`TagePredictor._push_history`'s circular-shift folds
    over the conditional outcomes and packs each table's index fold and
    combined tag fold before every training step.
    """
    n_tables = len(histories)
    index_mask = (1 << index_bits) - 1
    tag_a_mask = (1 << tag_bits) - 1
    tag_b_mask = (1 << (tag_bits - 1)) - 1
    max_history = histories[-1]
    geom = [(h, h % index_bits, h % tag_bits, h % (tag_bits - 1))
            for h in histories]
    folds = [[0, 0, 0] for _ in range(n_tables)]
    seqs = [[0] for _ in range(n_tables)]
    history = [0] * max_history
    pos = 0
    for kind, taken in zip(kinds, takens):
        if kind != cond_kind:
            continue
        new_bit = 1 if taken else 0
        for t in range(n_tables):
            hist, idx_out, a_out, b_out = geom[t]
            fold = folds[t]
            dropped = history[(pos - hist) % max_history]
            value = fold[0]
            fold[0] = f0 = (((value << 1) | new_bit) & index_mask) \
                ^ ((value >> (index_bits - 1)) & 1) \
                ^ ((dropped << idx_out) & index_mask)
            value = fold[1]
            fold[1] = f1 = (((value << 1) | new_bit) & tag_a_mask) \
                ^ ((value >> (tag_bits - 1)) & 1) \
                ^ ((dropped << a_out) & tag_a_mask)
            value = fold[2]
            fold[2] = f2 = (((value << 1) | new_bit) & tag_b_mask) \
                ^ ((value >> (tag_bits - 2)) & 1) \
                ^ ((dropped << b_out) & tag_b_mask)
            seqs[t].append(f0 | ((f1 ^ (f2 << 1)) << index_bits))
        history[pos] = new_bit
        pos = (pos + 1) % max_history
    return FoldSequences(seqs=seqs, histories=tuple(histories),
                         index_bits=index_bits, tag_bits=tag_bits)


class TestFoldSequences:
    """The numpy fold pass equals the scalar recurrence, value for value."""

    COND = int(BranchKind.COND)
    JUMP = int(BranchKind.JUMP)

    def _check(self, kinds, takens, **geometry):
        expected = _reference_fold_sequences(kinds, takens, self.COND,
                                             **geometry)
        got = precompute_fold_sequences(kinds, takens, self.COND,
                                        **geometry)
        assert got == expected
        assert all(type(value) is int for seq in got.seqs for value in seq)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 700),
           cond_share=st.sampled_from([0.0, 0.1, 0.8, 1.0]),
           taken_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_random_streams(self, seed, n, cond_share, taken_share):
        rng = np.random.default_rng(seed)
        kinds = [self.COND if r < cond_share else self.JUMP
                 for r in rng.random(n)]
        takens = [bool(r < taken_share) for r in rng.random(n)]
        self._check(kinds, takens)

    def test_no_conditionals(self):
        got = precompute_fold_sequences([self.JUMP] * 50, [True] * 50,
                                        self.COND)
        assert got.seqs == [[0]] * 4
        self._check([self.JUMP] * 50, [True] * 50)

    def test_fewer_conditionals_than_longest_history(self):
        kinds = [self.COND] * 100  # 100 < 128
        takens = [i % 3 != 0 for i in range(100)]
        self._check(kinds, takens)

    def test_all_taken(self):
        self._check([self.COND] * 600, [True] * 600)

    @pytest.mark.parametrize("geometry", [
        dict(histories=(4, 9, 17), index_bits=8, tag_bits=7),
        dict(histories=(5, 12, 40, 90, 200), index_bits=11, tag_bits=12),
        dict(histories=(3,), index_bits=6, tag_bits=5),
    ])
    def test_non_default_geometry(self, geometry):
        rng = np.random.default_rng(3)
        n = 900
        kinds = [self.COND if r < 0.7 else self.JUMP for r in rng.random(n)]
        takens = [bool(r < 0.6) for r in rng.random(n)]
        self._check(kinds, takens, **geometry)

    def test_accepts_numpy_columns(self):
        rng = np.random.default_rng(4)
        kinds = np.where(rng.random(500) < 0.8, self.COND,
                         self.JUMP).astype(np.int8)
        takens = rng.random(500) < 0.5
        expected = _reference_fold_sequences(kinds.tolist(),
                                             takens.tolist(), self.COND)
        assert precompute_fold_sequences(kinds, takens, self.COND) \
            == expected


class TestFoldArrays:
    """The compact folds a trace keeps drive the same predictions as the
    list folds, in the narrowest dtype that holds a packed value."""

    COND = int(BranchKind.COND)
    JUMP = int(BranchKind.JUMP)

    @staticmethod
    def _predictions(folds, pcs, kinds, takens, cond, **geometry):
        predictor = PrecomputedHistoryTage(folds, **geometry)
        return [predictor.predict_update(pc, taken) if step % 7 else
                predictor.update(pc, taken)
                for step, (pc, taken) in enumerate(
                    (pc, taken) for pc, kind, taken
                    in zip(pcs, kinds, takens) if kind == cond)]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 900),
           geometry=st.sampled_from([
               {},
               dict(histories=(4, 9, 17), tagged_entries=256, tag_bits=7),
               dict(histories=(5, 12, 40, 90, 200), tagged_entries=2048,
                    tag_bits=12),
               dict(histories=(3,), tagged_entries=64, tag_bits=5),
           ]))
    @settings(max_examples=40, deadline=None)
    def test_array_folds_predict_like_list_folds(self, seed, n, geometry):
        rng = np.random.default_rng(seed)
        pcs = [0x4000 + int(i) * 4 for i in rng.integers(0, 200, size=n)]
        kinds = [self.COND if r < 0.8 else self.JUMP
                 for r in rng.random(n)]
        takens = [bool(r < 0.6) for r in rng.random(n)]
        fold_geometry = dict(
            histories=geometry.get("histories",
                                   TagePredictor.DEFAULT_HISTORIES),
            index_bits=geometry.get("tagged_entries", 1024).bit_length() - 1,
            tag_bits=geometry.get("tag_bits", 9))
        arrays = fold_sequence_arrays(kinds, takens, self.COND,
                                      **fold_geometry)
        lists = precompute_fold_sequences(kinds, takens, self.COND,
                                          **fold_geometry)
        assert [seq.tolist() for seq in arrays.seqs] == lists.seqs
        assert self._predictions(arrays, pcs, kinds, takens, self.COND,
                                 **geometry) \
            == self._predictions(lists, pcs, kinds, takens, self.COND,
                                 **geometry)

    @pytest.mark.parametrize("index_bits, tag_bits, dtype", [
        (10, 9, np.int32), (4, 3, np.int8), (6, 5, np.int16),
        (8, 7, np.int16), (16, 15, np.int32), (20, 14, np.int64)])
    def test_narrowest_dtype(self, index_bits, tag_bits, dtype):
        kinds = [self.COND] * 300
        takens = [True] * 300
        folds = fold_sequence_arrays(kinds, takens, self.COND,
                                     histories=(5, 40), index_bits=index_bits,
                                     tag_bits=tag_bits)
        assert all(seq.dtype == dtype for seq in folds.seqs)
        assert all(int(seq.max()) < 1 << (index_bits + tag_bits)
                   for seq in folds.seqs)

    def test_predictor_keeps_its_own_lists(self):
        kinds = [self.COND] * 50
        folds = fold_sequence_arrays(kinds, [True] * 50, self.COND)
        predictor = PrecomputedHistoryTage(folds)
        assert all(type(seq) is list for seq in predictor._seqs)
        assert all(isinstance(seq, np.ndarray) for seq in folds.seqs)


class TestBimodal:
    def test_learns_bias(self):
        assert _run(BimodalPredictor(), [True] * 200) < 0.05

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            BimodalPredictor(100)
