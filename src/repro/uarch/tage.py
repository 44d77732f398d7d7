"""Branch direction predictors: TAGE (paper Table 3) and a bimodal fallback.

The TAGE implementation follows Seznec & Michaud's "A case for (partially)
tagged geometric history length branch prediction" [16]: a bimodal base
predictor plus tagged tables indexed by geometrically growing global
history lengths, with provider/alternate selection, useful counters and
allocate-on-mispredict.  Folded histories are maintained incrementally so
a prediction is O(number of tables).

Storage budget: with the default geometry (4K-entry bimodal, four
1K-entry tagged tables with 9-bit tags, 3-bit counters, 2-bit useful),
the predictor costs 1KB + 4 * 1.75KB = 8KB, matching Table 3.

Performance notes (DESIGN.md Section 7): ``predict``/``update`` sit in
the innermost simulation loop (one pair per conditional branch), so the
hot state is flat.  Tagged entries are 3-element lists
``[tag, counter, useful]`` in dense per-table lists, folded histories
are plain integers in parallel arrays updated inline (no per-fold method
calls), and provider/alternate selection walks the tables once without
building intermediate hit lists.  ``predict_update`` fuses the
predict/train pair the engine always issues into one call, sharing the
table walk and skipping the pending-prediction hand-off.  The arithmetic
is unchanged from the reference formulation — predictions are
bit-identical.

:class:`PrecomputedHistoryTage` goes one step further for trace-driven
simulation: because the engine trains the predictor on every conditional
branch in retire order, the global-history bit stream — and therefore
every folded-history value — is a pure function of the trace.
:func:`fold_sequence_arrays` computes every fold value once per trace
in a numpy pass (cached on the :class:`~repro.workloads.trace.Trace` as
narrow arrays, shared by every scheme simulated on it) and packs each
table's index fold and combined tag fold into one integer per step; each
predictor unpacks them into its own lists, so the per-branch cost drops
from twelve shift/xor/mask updates to a single list index.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Tagged-entry slots (dense lists instead of objects).
_TAG = 0
_CTR = 1
_USEFUL = 2


class _FoldedHistory:
    """Incrementally folded global history (circular-shift register).

    Retained as the reference formulation (and for the property tests);
    :class:`TagePredictor` keeps its folds inline as plain integers using
    the same recurrence.
    """

    def __init__(self, history_length: int, folded_length: int) -> None:
        self.history_length = history_length
        self.folded_length = folded_length
        self.value = 0
        self._out_shift = history_length % folded_length
        self._mask = (1 << folded_length) - 1

    def update(self, new_bit: int, dropped_bit: int) -> None:
        """Shift in *new_bit*, remove the influence of *dropped_bit*.

        Standard circular-shift-register folding (Michaud/Seznec): the
        bit shifted out of the fold wraps back to bit 0, and the history
        bit leaving the window is XOR-cancelled at its folded position
        ``history_length % folded_length``.
        """
        wrap = (self.value >> (self.folded_length - 1)) & 1
        value = ((self.value << 1) | new_bit) & self._mask
        value ^= wrap
        value ^= (dropped_bit << self._out_shift) & self._mask
        self.value = value


class TagePredictor:
    """TAGE with a 2-bit bimodal base (8KB default budget).

    The public interface is ``predict(pc) -> bool`` followed by
    ``update(pc, taken)`` for the same branch (in retirement order, as the
    trace-driven engine naturally does).
    """

    #: Geometric history lengths of the default 8KB configuration.
    DEFAULT_HISTORIES: Tuple[int, ...] = (8, 20, 50, 128)

    def __init__(self, bimodal_entries: int = 4096,
                 tagged_entries: int = 1024, tag_bits: int = 9,
                 histories: Tuple[int, ...] = DEFAULT_HISTORIES) -> None:
        if bimodal_entries <= 0 or tagged_entries <= 0:
            raise ConfigError("predictor table sizes must be positive")
        if list(histories) != sorted(histories):
            raise ConfigError("history lengths must be increasing")
        self._bimodal = [2] * bimodal_entries  # 2-bit, >=2 predicts taken
        self._bimodal_mask = bimodal_entries - 1
        if bimodal_entries & self._bimodal_mask:
            raise ConfigError("bimodal entries must be a power of two")
        index_bits = tagged_entries.bit_length() - 1
        if (1 << index_bits) != tagged_entries:
            raise ConfigError("tagged table entries must be a power of two")
        self.tagged_entries = tagged_entries
        self.tag_bits = tag_bits
        self.histories = tuple(histories)
        n_tables = len(self.histories)
        self._n_tables = n_tables
        self._index_bits = index_bits
        self._index_mask = tagged_entries - 1
        self._tag_mask = (1 << tag_bits) - 1

        # Per-table dense entry storage: None or [tag, counter, useful].
        self._tables: List[List[Optional[list]]] = [
            [None] * tagged_entries for _ in range(n_tables)
        ]
        # Inline folded histories, one mutable [index, tagA, tagB] triple
        # per table, with the fold geometry precomputed alongside:
        # (history_length, index_out_shift, tagA_out_shift, tagB_out_shift).
        self._folds: List[List[int]] = [[0, 0, 0] for _ in range(n_tables)]
        self._fold_geom: List[Tuple[int, int, int, int]] = [
            (h, h % index_bits, h % tag_bits, h % (tag_bits - 1))
            for h in self.histories
        ]
        # Fold A shares the lookup tag's width; fold B is one bit
        # narrower (the << 1 in the tag hash keeps the xor full-width).
        self._tag_b_mask = (1 << (tag_bits - 1)) - 1

        self._max_history = self.histories[-1]
        self._history_bits = [0] * self._max_history
        self._history_pos = 0
        self._pending: Optional[tuple] = None
        self.predictions = 0
        self.mispredictions = 0

    # -- prediction ---------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at *pc*."""
        key = pc >> 2
        bimodal_pred = self._bimodal[key & self._bimodal_mask] >= 2
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        pc_idx = key ^ (key >> self._index_bits)

        provider = -1
        provider_entry = None
        alt_entry = None
        i = 0
        for table, fold in zip(self._tables, self._folds):
            entry = table[(pc_idx ^ fold[0]) & index_mask]
            if entry is not None and entry[_TAG] == (
                    (key ^ fold[1] ^ (fold[2] << 1)) & tag_mask):
                alt_entry = provider_entry
                provider_entry = entry
                provider = i
            i += 1

        if provider_entry is not None:
            provider_pred = provider_entry[_CTR] >= 0
            if alt_entry is not None:
                alt_pred = alt_entry[_CTR] >= 0
            else:
                alt_pred = bimodal_pred
        else:
            provider_pred = alt_pred = bimodal_pred
        self._pending = (pc, provider, provider_pred, alt_pred,
                         provider_entry)
        self.predictions += 1
        return provider_pred

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Fused ``predict`` + ``update`` for the engine's hot loop.

        The engine always resolves a prediction immediately (trace
        order), so the split predict/update protocol only exists for
        callers that interleave branches.  Fusing shares the table walk's
        index/tag computations with the allocate path and avoids the
        pending-prediction tuple.  Bit-identical to ``predict`` followed
        by ``update`` for the same pc.
        """
        self._pending = None
        key = pc >> 2
        bimodal = self._bimodal
        bimodal_idx = key & self._bimodal_mask
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        pc_idx = key ^ (key >> self._index_bits)

        provider = -1
        provider_entry = None
        alt_entry = None
        i = 0
        for table, fold in zip(self._tables, self._folds):
            entry = table[(pc_idx ^ fold[0]) & index_mask]
            if entry is not None and entry[_TAG] == (
                    (key ^ fold[1] ^ (fold[2] << 1)) & tag_mask):
                alt_entry = provider_entry
                provider_entry = entry
                provider = i
            i += 1

        if provider_entry is not None:
            provider_pred = provider_entry[_CTR] >= 0
            if alt_entry is not None:
                alt_pred = alt_entry[_CTR] >= 0
            else:
                alt_pred = bimodal[bimodal_idx] >= 2
            ctr = provider_entry[_CTR]
            provider_entry[_CTR] = (ctr + 1 if ctr < 3 else 3) if taken \
                else (ctr - 1 if ctr > -4 else -4)
            if provider_pred != alt_pred:
                useful = provider_entry[_USEFUL]
                if provider_pred == taken:
                    provider_entry[_USEFUL] = useful + 1 if useful < 3 else 3
                elif useful > 0:
                    provider_entry[_USEFUL] = useful - 1
        else:
            provider_pred = alt_pred = bimodal[bimodal_idx] >= 2
            value = bimodal[bimodal_idx]
            bimodal[bimodal_idx] = (value + 1 if value < 3 else 3) if taken \
                else (value - 1 if value > 0 else 0)
        self.predictions += 1

        if provider_pred != taken:
            self.mispredictions += 1
            if provider < self._n_tables - 1:
                folds = self._folds
                tables = self._tables
                for i in range(provider + 1, self._n_tables):
                    fold = folds[i]
                    idx = (pc_idx ^ fold[0]) & index_mask
                    table = tables[i]
                    victim = table[idx]
                    if victim is not None and victim[_USEFUL] > 0:
                        victim[_USEFUL] -= 1
                        continue
                    tag = (key ^ fold[1] ^ (fold[2] << 1)) & tag_mask
                    table[idx] = [tag, 0 if taken else -1, 0]
                    break

        self._push_history(taken)
        return provider_pred

    # -- update -------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome of the branch at *pc*.

        Must follow the ``predict`` call for the same pc (the engine
        predicts and resolves in trace order).
        """
        pending = self._pending
        if pending is None or pending[0] != pc:
            # Cold update (e.g. a branch resolved without a prediction,
            # as happens on the baseline's BTB-miss path): train bimodal.
            bimodal = self._bimodal
            idx = (pc >> 2) & self._bimodal_mask
            value = bimodal[idx]
            bimodal[idx] = (value + 1 if value < 3 else 3) if taken \
                else (value - 1 if value > 0 else 0)
            self._push_history(taken)
            return
        _, provider, provider_pred, alt_pred, entry = pending
        self._pending = None
        if provider_pred != taken:
            self.mispredictions += 1

        if entry is not None:
            ctr = entry[_CTR]
            entry[_CTR] = (ctr + 1 if ctr < 3 else 3) if taken \
                else (ctr - 1 if ctr > -4 else -4)
            if provider_pred != alt_pred:
                useful = entry[_USEFUL]
                if provider_pred == taken:
                    entry[_USEFUL] = useful + 1 if useful < 3 else 3
                elif useful > 0:
                    entry[_USEFUL] = useful - 1
        else:
            bimodal = self._bimodal
            idx = (pc >> 2) & self._bimodal_mask
            value = bimodal[idx]
            bimodal[idx] = (value + 1 if value < 3 else 3) if taken \
                else (value - 1 if value > 0 else 0)

        # Allocate a longer-history entry on a misprediction.
        if provider_pred != taken and provider < self._n_tables - 1:
            key = pc >> 2
            pc_idx = key ^ (key >> self._index_bits)
            index_mask = self._index_mask
            tag_mask = self._tag_mask
            folds = self._folds
            tables = self._tables
            for i in range(provider + 1, self._n_tables):
                fold = folds[i]
                idx = (pc_idx ^ fold[0]) & index_mask
                table = tables[i]
                victim = table[idx]
                if victim is not None and victim[_USEFUL] > 0:
                    victim[_USEFUL] -= 1
                    continue
                tag = (key ^ fold[1] ^ (fold[2] << 1)) & tag_mask
                table[idx] = [tag, 0 if taken else -1, 0]
                break

        self._push_history(taken)

    def _push_history(self, taken: bool) -> None:
        """Shift one outcome into every fold (inline, no method calls)."""
        new_bit = 1 if taken else 0
        pos = self._history_pos
        history = self._history_bits
        max_history = self._max_history
        index_bits_1 = self._index_bits - 1
        index_mask = self._index_mask
        tag_a_mask = self._tag_mask
        tag_b_mask = self._tag_b_mask
        tag_bits_1 = self.tag_bits - 1
        tag_bits_2 = self.tag_bits - 2

        for fold, (hist, idx_out, a_out, b_out) in \
                zip(self._folds, self._fold_geom):
            drop_pos = pos - hist
            if drop_pos < 0:
                drop_pos += max_history
            dropped = history[drop_pos]
            value = fold[0]
            fold[0] = (((value << 1) | new_bit) & index_mask) \
                ^ ((value >> index_bits_1) & 1) \
                ^ ((dropped << idx_out) & index_mask)
            value = fold[1]
            fold[1] = (((value << 1) | new_bit) & tag_a_mask) \
                ^ ((value >> tag_bits_1) & 1) \
                ^ ((dropped << a_out) & tag_a_mask)
            value = fold[2]
            fold[2] = (((value << 1) | new_bit) & tag_b_mask) \
                ^ ((value >> tag_bits_2) & 1) \
                ^ ((dropped << b_out) & tag_b_mask)
        history[pos] = new_bit
        pos += 1
        self._history_pos = 0 if pos == max_history else pos

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def storage_bits(self) -> int:
        """Approximate storage: bimodal counters + tagged entries."""
        tagged_bits = self._n_tables * self.tagged_entries \
            * (self.tag_bits + 3 + 2)
        return len(self._bimodal) * 2 + tagged_bits


class FoldSequences(NamedTuple):
    """Packed per-table fold sequences plus the geometry they encode.

    Carrying the geometry lets :class:`PrecomputedHistoryTage` verify
    that the sequences were produced for *its* table layout — unpacking
    with mismatched index/tag widths would silently yield garbage
    lookups rather than an error.  Each sequence is a list of ints
    (:func:`precompute_fold_sequences`) or a numpy array
    (:func:`fold_sequence_arrays`, the compact form a trace keeps).
    """

    seqs: List[Sequence[int]]
    histories: Tuple[int, ...]
    index_bits: int
    tag_bits: int


def fold_sequence_arrays(
    kinds, takens,
    cond_kind: int,
    histories: Tuple[int, ...] = TagePredictor.DEFAULT_HISTORIES,
    index_bits: int = 10, tag_bits: int = 9,
) -> FoldSequences:
    """Every packed folded-history value the engine's TAGE will read.

    The engine trains TAGE on every conditional block in retire order, so
    the predictor's global-history stream equals the trace's conditional
    outcomes — a pure trace property.  This computes, for each tagged
    table, the packed fold value *before* each training step ``s``::

        packed = index_fold | (tag_fold_a ^ (tag_fold_b << 1)) << index_bits

    i.e. exactly the two quantities a lookup needs (the index xor-term
    and the combined tag xor-term), one entry per conditional plus the
    initial state.  A packed value has ``index_bits + tag_bits`` bits,
    so each sequence is an array of the narrowest signed dtype that
    holds one more bit than that (int32 for the default geometry).

    This is the closed form of :meth:`TagePredictor._push_history`'s
    circular-shift recurrence, so the values are the same integers and
    predictions are bit-identical.  A fold of width *w* holds the XOR of
    every in-window history bit shifted to ``age % w`` (the recurrence
    rotates each bit one place per step and cancels it at
    ``history_length % w`` once it leaves the window), so a taken
    outcome *age* steps old adds a fixed packed weight.  The value
    after step ``s`` is the XOR of those weights over the last ``h``
    outcomes.  The weights do not depend on ``h``, so one running XOR
    over ages ``0 .. max(histories) - 1`` serves every table: a numpy
    pass of one shifted XOR per age.  *kinds* and *takens* are
    per-block sequences (lists or arrays).
    """
    kinds = np.asarray(kinds)
    bits = np.asarray(takens, dtype=bool)[kinds == cond_kind]
    m = len(bits)
    dtype = np.int64
    packed_dtype = np.min_scalar_type(-(1 << (index_bits + tag_bits)))
    # Taken outcomes as 0/-1, so ``outcome & weight`` is the weight or 0.
    outcomes = -bits.astype(dtype)
    folds = np.zeros(m + 1, dtype=dtype)
    by_history = {}
    for age in range(histories[-1]):
        if age < m:
            weight = (1 << age % index_bits) ^ (
                ((1 << age % tag_bits) ^ (1 << (age % (tag_bits - 1) + 1)))
                << index_bits)
            # After step s (slot s + 1) the outcome of step s - age is
            # ``age`` steps old.
            folds[age + 1:] ^= outcomes[:m - age] & weight
        if age + 1 in histories:
            by_history[age + 1] = folds.astype(packed_dtype)
    return FoldSequences(seqs=[by_history[h] for h in histories],
                         histories=tuple(histories),
                         index_bits=index_bits, tag_bits=tag_bits)


def precompute_fold_sequences(
    kinds, takens,
    cond_kind: int,
    histories: Tuple[int, ...] = TagePredictor.DEFAULT_HISTORIES,
    index_bits: int = 10, tag_bits: int = 9,
) -> FoldSequences:
    """:func:`fold_sequence_arrays` with each sequence as a list of ints."""
    folds = fold_sequence_arrays(kinds, takens, cond_kind, histories,
                                 index_bits, tag_bits)
    return folds._replace(seqs=[seq.tolist() for seq in folds.seqs])


class PrecomputedHistoryTage(TagePredictor):
    """TAGE replaying trace-derived fold sequences (bit-identical).

    Built by the engine when no explicit predictor is supplied and the
    trace's fold sequences are available (see
    ``FrontEnd``/:func:`fold_sequence_arrays`).  Each training step
    advances an index into the packed per-table sequences instead of
    updating twelve fold registers, and lookups unpack the index/tag
    xor-terms with one shift each.

    Only the two calls the engines make exist: the fused
    :meth:`predict_update`, and :meth:`update` for a cold train (which
    never follows a prediction).  The split ``predict``/``update``
    protocol belongs to :class:`TagePredictor`.  The counter/useful/
    allocate logic here intentionally mirrors
    :meth:`TagePredictor.predict_update`; the equivalence tests in
    ``tests/test_tage.py`` pin the copies together and fail on any drift.
    """

    def __init__(self, fold_sequences: FoldSequences,
                 bimodal_entries: int = 4096, tagged_entries: int = 1024,
                 tag_bits: int = 9,
                 histories: Tuple[int, ...] = TagePredictor.DEFAULT_HISTORIES,
                 ) -> None:
        super().__init__(bimodal_entries=bimodal_entries,
                         tagged_entries=tagged_entries, tag_bits=tag_bits,
                         histories=histories)
        if (tuple(fold_sequences.histories) != self.histories
                or fold_sequences.index_bits != self._index_bits
                or fold_sequences.tag_bits != self.tag_bits
                or len(fold_sequences.seqs) != self._n_tables):
            raise ConfigError(
                "fold sequences were precomputed for a different TAGE "
                f"geometry (sequences: {len(fold_sequences.seqs)} tables, "
                f"histories {fold_sequences.histories}, "
                f"index_bits {fold_sequences.index_bits}, "
                f"tag_bits {fold_sequences.tag_bits}; predictor: "
                f"{self._n_tables} tables, histories {self.histories}, "
                f"index_bits {self._index_bits}, tag_bits {self.tag_bits})"
            )
        # Private lists: a list index is the cheapest per-step read, and
        # the trace keeps only the compact arrays.
        self._seqs = [seq.tolist() if isinstance(seq, np.ndarray) else seq
                      for seq in fold_sequences.seqs]
        self._step = 0

    def predict(self, pc: int) -> bool:
        raise NotImplementedError(
            "PrecomputedHistoryTage replays trace-order training only: "
            "use predict_update (and update for a cold train)")

    def update(self, pc: int, taken: bool) -> None:
        """Cold train: a conditional resolved without a prediction (the
        baseline's BTB-miss path) trains the bimodal table and advances
        the history like any other conditional."""
        bimodal = self._bimodal
        idx = (pc >> 2) & self._bimodal_mask
        value = bimodal[idx]
        bimodal[idx] = (value + 1 if value < 3 else 3) if taken \
            else (value - 1 if value > 0 else 0)
        self._step += 1

    def predict_update(self, pc: int, taken: bool) -> bool:
        key = pc >> 2
        bimodal = self._bimodal
        bimodal_idx = key & self._bimodal_mask
        index_bits = self._index_bits
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        pc_idx = key ^ (key >> index_bits)
        step = self._step

        provider = -1
        provider_entry = None
        alt_entry = None
        i = 0
        for table, seq in zip(self._tables, self._seqs):
            packed = seq[step]
            entry = table[(pc_idx ^ packed) & index_mask]
            if entry is not None and entry[_TAG] == (
                    (key ^ (packed >> index_bits)) & tag_mask):
                alt_entry = provider_entry
                provider_entry = entry
                provider = i
            i += 1

        if provider_entry is not None:
            provider_pred = provider_entry[_CTR] >= 0
            if alt_entry is not None:
                alt_pred = alt_entry[_CTR] >= 0
            else:
                alt_pred = bimodal[bimodal_idx] >= 2
            ctr = provider_entry[_CTR]
            provider_entry[_CTR] = (ctr + 1 if ctr < 3 else 3) if taken \
                else (ctr - 1 if ctr > -4 else -4)
            if provider_pred != alt_pred:
                useful = provider_entry[_USEFUL]
                if provider_pred == taken:
                    provider_entry[_USEFUL] = useful + 1 if useful < 3 else 3
                elif useful > 0:
                    provider_entry[_USEFUL] = useful - 1
        else:
            provider_pred = alt_pred = bimodal[bimodal_idx] >= 2
            value = bimodal[bimodal_idx]
            bimodal[bimodal_idx] = (value + 1 if value < 3 else 3) if taken \
                else (value - 1 if value > 0 else 0)
        self.predictions += 1

        if provider_pred != taken:
            self.mispredictions += 1
            if provider < self._n_tables - 1:
                seqs = self._seqs
                tables = self._tables
                for i in range(provider + 1, self._n_tables):
                    packed = seqs[i][step]
                    idx = (pc_idx ^ packed) & index_mask
                    table = tables[i]
                    victim = table[idx]
                    if victim is not None and victim[_USEFUL] > 0:
                        victim[_USEFUL] -= 1
                        continue
                    tag = (key ^ (packed >> index_bits)) & tag_mask
                    table[idx] = [tag, 0 if taken else -1, 0]
                    break

        self._step = step + 1
        return provider_pred


def replay_cond_mispredicts(fold_sequences: FoldSequences,
                            pcs, kinds, takens,
                            cond_kind: int) -> List[bool]:
    """Per-block mispredict flags from a full-trace TAGE replay.

    Drives a fresh :class:`PrecomputedHistoryTage` over the trace's
    conditional blocks in retire order — exactly the calls the
    interpreter engine makes — and records where the prediction
    disagreed with the outcome.  The predictor is clock-free, so the
    flags are a pure function of the trace: the columnar engine computes
    them once per (trace, predictor-geometry) and reuses them across
    every microarchitectural parameter point.
    """
    predictor = PrecomputedHistoryTage(fold_sequences)
    predict_update = predictor.predict_update
    flags = [False] * len(pcs)
    for i, kind in enumerate(kinds):
        if kind == cond_kind:
            flags[i] = predict_update(pcs[i], takens[i]) != takens[i]
    return flags


class BimodalPredictor:
    """Plain 2-bit bimodal predictor (test baseline and ablations)."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("bimodal entries must be a positive power of 2")
        self._table = [2] * entries
        self._mask = entries - 1
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        return self._table[(pc >> 2) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = (pc >> 2) & self._mask
        value = self._table[idx]
        predicted = value >= 2
        if predicted != taken:
            self.mispredictions += 1
        self._table[idx] = min(3, value + 1) if taken else max(0, value - 1)

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Fused ``predict`` + ``update`` (same protocol as TAGE's)."""
        self.predictions += 1
        idx = (pc >> 2) & self._mask
        value = self._table[idx]
        predicted = value >= 2
        if predicted != taken:
            self.mispredictions += 1
        self._table[idx] = min(3, value + 1) if taken else max(0, value - 1)
        return predicted

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions
