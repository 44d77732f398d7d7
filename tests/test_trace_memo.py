"""What a memoised trace keeps, and the byte-bounded trace memo.

* ``Trace.hot`` interns its integer columns and still equals the numpy
  columns' ``tolist()`` value for value and type for type, for any
  trace: a target that is not the next pc, a pc repeated with another
  instruction count, slices and ``save``/``load`` round trips.
* ``profiles.TraceMemo`` evicts least recently used traces past
  ``TRACE_MEMO_BYTES``, never the one in use; a bounded sampled sweep
  is bit-identical to the unbounded one, and a rebuilt evicted trace
  equals the original, replays included.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import sweep
from repro.experiments.spec import RunSpec, SampleSpec
from repro.isa import BLOCK_SHIFT, INSTR_BYTES, BranchKind
from repro.obs.metrics import counter
from repro.workloads import profiles
from repro.workloads.profiles import TraceMemo, build_trace
from repro.workloads.trace import Trace

KINDS = sorted(int(kind) for kind in BranchKind)


def _tolist_columns(trace: Trace) -> dict:
    """The columns ``Trace.hot`` held before interning: plain tolist()."""
    pc = trace.pc
    ninstr = trace.ninstr.astype(np.int64)
    branch_pc = pc + (ninstr - 1) * INSTR_BYTES
    return {
        "pc": pc.tolist(),
        "ninstr": trace.ninstr.tolist(),
        "kind": trace.kind.tolist(),
        "taken": trace.taken.tolist(),
        "target": trace.target.tolist(),
        "first_line": (pc >> BLOCK_SHIFT).tolist(),
        "last_line": (branch_pc >> BLOCK_SHIFT).tolist(),
        "fallthrough": (pc + ninstr * INSTR_BYTES).tolist(),
    }


def _assert_hot_equals_tolist(trace: Trace) -> None:
    hot = trace.hot._asdict()
    expected = _tolist_columns(trace)
    assert list(hot) == list(expected)
    for name, values in expected.items():
        assert hot[name] == values, name
        assert [type(v) for v in hot[name]] == [type(v) for v in values], \
            name
    # Interned: one object per distinct value across the int columns.
    objects: dict = {}
    for name in ("pc", "target", "fallthrough", "first_line", "last_line",
                 "ninstr"):
        for value in hot[name]:
            assert objects.setdefault(value, value) is value, name


@st.composite
def traces(draw):
    """Random traces: a few distinct pcs, each maybe with several
    instruction counts; targets the next pc or anywhere."""
    n = draw(st.integers(1, 200))
    pool = draw(st.lists(st.integers(0, 2**40 // INSTR_BYTES),
                         min_size=1, max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    chained = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    pc = np.array(pool, dtype=np.int64)[rng.integers(0, len(pool), n)] \
        * INSTR_BYTES
    ninstr = rng.integers(1, 300, n).astype(np.int16)
    kind = np.array(KINDS, dtype=np.int8)[rng.integers(0, len(KINDS), n)]
    taken = rng.random(n) < 0.5
    anywhere = rng.integers(0, 2**41, n) * INSTR_BYTES
    following = np.append(pc[1:], anywhere[-1])
    target = np.where(rng.random(n) < chained, following, anywhere)
    return Trace(pc, ninstr, kind, taken, target)


class TestInternedHot:
    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_equals_tolist_columns(self, trace):
        _assert_hot_equals_tolist(trace)

    @given(trace=traces(), bounds=st.tuples(st.integers(0, 199),
                                            st.integers(1, 200)))
    @settings(max_examples=40, deadline=None)
    def test_slices(self, trace, bounds):
        start = min(bounds[0], len(trace) - 1)
        stop = max(start + 1, min(bounds[1], len(trace)))
        _assert_hot_equals_tolist(trace.slice(start, stop))

    @given(trace=traces())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_save_load_round_trip(self, trace):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.npz")
            trace.save(path)
            loaded = Trace.load(path)
        _assert_hot_equals_tolist(loaded)
        assert loaded.hot == trace.hot

    def test_repeated_pc_keeps_each_blocks_lines(self):
        # One pc, two instruction counts: the line columns follow each
        # block's own count, not the first one seen.
        pc = np.array([0x1000, 0x1000, 0x1000], dtype=np.int64)
        trace = Trace(pc, np.array([2, 40, 2], dtype=np.int16),
                      np.zeros(3, dtype=np.int8), np.zeros(3, dtype=bool),
                      pc + 8)
        _assert_hot_equals_tolist(trace)
        assert trace.hot.last_line[0] != trace.hot.last_line[1]

    def test_generated_trace_shares_targets_with_pcs(self):
        trace = build_trace("nutch", 2000, seed=5)
        hot = trace.hot
        assert trace.target[:-1].tolist() == trace.pc[1:].tolist()
        assert all(target is pc
                   for target, pc in zip(hot.target[:-1], hot.pc[1:]))
        _assert_hot_equals_tolist(trace)


def test_estimated_bytes_counts_what_a_trace_keeps():
    trace = build_trace("nutch", 1000, seed=11)
    stored = sum(column.nbytes for column in (
        trace.pc, trace.ninstr, trace.kind, trace.taken, trace.target))
    fresh = Trace(trace.pc, trace.ninstr, trace.kind, trace.taken,
                  trace.target, trace.generated)
    assert fresh.estimated_bytes() == stored
    _ = fresh.hot
    with_hot = fresh.estimated_bytes()
    assert with_hot >= stored + 8 * 8 * len(fresh)
    fresh.derived["example"] = (np.zeros(10, dtype=np.int32), b"abc",
                                [1, 2, 3])
    # One dict slot, then the tuple's three slots, the array, the bytes
    # and the list's three slots (its ints are not walked).
    assert fresh.estimated_bytes() == with_hot + 8 + 24 + 40 + 3 + 24


# ---------------------------------------------------------------------------
# The bounded memo
# ---------------------------------------------------------------------------

WORKLOAD = "flatstream"
SCHEMES = ("baseline", "shotgun")
WINDOWS = 48
WINDOW_BLOCKS = 300


def _window_specs():
    sample = SampleSpec(n_windows=WINDOWS, seed_base=7000)
    return {scheme: sample.window_specs(
                RunSpec(workload=WORKLOAD, scheme=scheme),
                WINDOWS * WINDOW_BLOCKS)
            for scheme in SCHEMES}


def _counts():
    return (counter("memo.trace_hits").value,
            counter("memo.trace_evictions").value)


def _same(left, right) -> bool:
    """Deep equality for derived entries (arrays compare by content)."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray)
                and isinstance(right, np.ndarray)
                and left.dtype == right.dtype
                and np.array_equal(left, right))
    if isinstance(left, (list, tuple)):
        return (type(left) is type(right) and len(left) == len(right)
                and all(_same(a, b) for a, b in zip(left, right)))
    return type(left) is type(right) and left == right


@pytest.fixture
def private_memo(monkeypatch):
    """An empty trace memo and result memo for this test only."""
    memo = TraceMemo()
    monkeypatch.setattr(profiles, "_TRACE_CACHE", memo)
    sweep.clear_result_cache()
    yield memo
    sweep.clear_result_cache()


def test_bounded_sweep_is_bit_identical_and_stays_in_budget(
        private_memo, monkeypatch):
    windows = _window_specs()
    specs = [spec for scheme in SCHEMES for spec in windows[scheme]]

    hits0, evictions0 = _counts()
    unbounded = sweep.run_specs(specs, use_cache=False, backend="serial")
    hits, evictions = _counts()
    assert (hits - hits0, evictions - evictions0) == (WINDOWS, 0)
    assert len(private_memo) == WINDOWS
    originals = {key: private_memo[key] for key in private_memo}
    window_bytes = max(trace.estimated_bytes()
                       for trace in originals.values())

    budget = 2 * window_bytes
    monkeypatch.setattr(profiles, "TRACE_MEMO_BYTES", budget)
    bounded_memo = TraceMemo()
    monkeypatch.setattr(profiles, "_TRACE_CACHE", bounded_memo)
    simulate = sweep.simulate
    peaks = []

    def measured(trace, *args, **kwargs):
        result = simulate(trace, *args, **kwargs)
        held = [bounded_memo[key] for key in bounded_memo]
        assert any(held_trace is trace for held_trace in held)
        total = sum(held_trace.estimated_bytes() for held_trace in held)
        peaks.append(total)
        assert total <= budget + trace.estimated_bytes()
        return result

    monkeypatch.setattr(sweep, "simulate", measured)
    builds = counter("sweep.simulations").value
    hits0, evictions0 = _counts()
    bounded = sweep.run_specs(specs, use_cache=False, backend="serial")
    hits, evictions = _counts()
    assert len(peaks) == len(specs)
    assert counter("sweep.simulations").value - builds == len(specs)
    # Every cell fetched its trace once: a hit, or a build that was
    # admitted; every build beyond what is still held was evicted.
    built = len(specs) - (hits - hits0)
    assert evictions - evictions0 == built - len(bounded_memo)
    assert evictions - evictions0 > 0
    assert 1 <= len(bounded_memo) <= 3
    assert bounded_memo.total_bytes <= budget + window_bytes
    assert {spec: dataclasses.asdict(result.stats)
            for spec, result in bounded.items()} \
        == {spec: dataclasses.asdict(result.stats)
            for spec, result in unbounded.items()}

    # A rebuilt evicted trace equals the original, replays included.
    first = windows["baseline"][0]
    key = (WORKLOAD, first.n_blocks, first.seed)
    assert key not in bounded_memo
    monkeypatch.setattr(sweep, "simulate", simulate)
    for scheme in SCHEMES:
        sweep.run_spec(windows[scheme][0], use_cache=False)
    rebuilt, original = bounded_memo[key], originals[key]
    assert rebuilt is not original
    for column in ("pc", "ninstr", "kind", "taken", "target"):
        assert np.array_equal(getattr(rebuilt, column),
                              getattr(original, column))
    assert rebuilt.hot == original.hot
    assert sorted(map(str, rebuilt.derived)) \
        == sorted(map(str, original.derived))
    for name, value in original.derived.items():
        assert _same(rebuilt.derived[name], value), name


def test_memo_keeps_the_trace_in_use_and_counts_exactly(
        private_memo, monkeypatch):
    """Interleaved cells: each window's second cell hits its trace."""
    windows = _window_specs()
    one = build_trace(WORKLOAD, windows["baseline"][0].n_blocks,
                      seed=windows["baseline"][0].seed)
    sweep.run_spec(windows["baseline"][0], use_cache=False)
    private_memo.clear()
    monkeypatch.setattr(profiles, "TRACE_MEMO_BYTES",
                        one.estimated_bytes() // 2)
    hits0, evictions0 = _counts()
    for k in range(WINDOWS):
        for scheme in SCHEMES:
            sweep.run_spec(windows[scheme][k], use_cache=False)
            # Under a budget smaller than one trace, only the trace in
            # use stays.
            assert len(private_memo) == 1
    hits, evictions = _counts()
    assert hits - hits0 == WINDOWS
    assert evictions - evictions0 == WINDOWS - 1


def test_traces_growing_after_their_last_fetch_are_measured(
        private_memo, monkeypatch):
    """Scheme-major order (the benchmark's): each window's first cell
    grows its trace after the memo admitted it, so the memo must
    measure the trace that was in use before the next one."""
    windows = _window_specs()
    probe = windows["baseline"][0]
    sweep.run_spec(probe, use_cache=False)
    budget = 2 * build_trace(WORKLOAD, probe.n_blocks,
                             seed=probe.seed).estimated_bytes()
    private_memo.clear()
    monkeypatch.setattr(profiles, "TRACE_MEMO_BYTES", budget)
    for scheme in SCHEMES:
        for spec in windows[scheme][:16]:
            sweep.run_spec(spec, use_cache=False)
            trace = private_memo[(WORKLOAD, spec.n_blocks, spec.seed)]
            held = sum(private_memo[key].estimated_bytes()
                       for key in private_memo)
            assert held <= budget + trace.estimated_bytes()


def test_deleting_and_clearing_keep_the_byte_count(private_memo):
    traces = []
    for seed in (1, 2, 3):
        # Each trace grows after it is admitted; the memo measures it
        # again when the next one comes in, the last one on refresh.
        traces.append(build_trace(WORKLOAD, 200, seed=seed))
        _ = traces[-1].hot
    private_memo.refresh()
    assert private_memo.total_bytes == sum(
        trace.estimated_bytes() for trace in traces)
    del private_memo[(WORKLOAD, 200, 2)]
    assert private_memo.total_bytes == sum(
        trace.estimated_bytes() for trace in (traces[0], traces[2]))
    assert list(private_memo) == [(WORKLOAD, 200, 1), (WORKLOAD, 200, 3)]
    private_memo.clear()
    assert (len(private_memo), private_memo.total_bytes) == (0, 0)


def test_threads_sharing_the_memo_keep_its_byte_count(monkeypatch):
    """Thread-backend workers share one memo: concurrent fetches, builds
    and evictions keep the byte count equal to the held traces' sum."""
    import random
    import sys
    import threading

    rng = np.random.default_rng(1)
    traces = [Trace(rng.integers(0, 2**20, 50) * 4,
                    np.full(50, 3, dtype=np.int16), np.zeros(50, np.int8),
                    np.zeros(50, bool), rng.integers(0, 2**20, 50) * 4)
              for _ in range(12)]
    size = traces[0].estimated_bytes()
    monkeypatch.setattr(profiles, "TRACE_MEMO_BYTES", 3 * size)
    memo = TraceMemo()

    def worker(seed):
        choose = random.Random(seed).randrange
        for _ in range(300):
            key = ("stress", 50, choose(len(traces)))
            if memo.fetch(key) is None:
                memo.admit(key, traces[key[2]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(memo) <= 3
    assert memo.total_bytes == size * len(memo)
