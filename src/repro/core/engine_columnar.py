"""Columnar batched engine: array-at-a-time replay of the interpreter.

The interpreter engine (:mod:`repro.core.frontend`) walks the trace one
block at a time, interleaving control-flow delivery, cache probes and
clock accounting in a single Python loop.  For the two clock-free
delivery models — the ideal front-end and the demand-driven baseline —
that interleaving is unnecessary: the scheme's lookup/fill behaviour,
the TAGE direction stream, the L1-I/LLC hit sequences and the synthetic
L1-D miss schedule are all *pure functions of the trace* (no component
reads the clock), so they can each be computed in one dedicated pass
and the clock recurrence evaluated over precomputed per-block addend
arrays (DESIGN.md Section 14).

The engine therefore runs in stages:

1. **Control pass** (cached per trace x BTB geometry in
   :mod:`repro.core.control`, shared with the interpreter's run-ahead
   cells): replay the BTB / TAGE / RAS interaction against fresh
   structures — exactly the calls the interpreter makes — producing a
   per-block outcome byte (BTB miss, flush class).  The TAGE replay rides
   the :class:`~repro.uarch.tage.PrecomputedHistoryTage` folded-history
   precomputation, which is the batching seam: one fold replay serves
   every parameter point simulated on the trace.
2. **Memory pass** (cached per trace x cache geometry): replay the
   L1-I/LLC LRU state machines (:meth:`SetAssocCache.probe_insert`) to
   an ordered L1-I-miss event list with per-event LLC hit flags.  Only
   the *latencies* are clock-dependent (NoC load), never the hit/miss
   outcomes.
3. **L1-D pass** (cached per trace x miss rate): replay the fractional
   miss accumulator to a (block, miss-count) drain schedule.
4. **Timing pass** (per parameter point): advance the clock over the
   vectorised addend array with ``np.add.accumulate`` (strictly
   sequential, the same left-to-right IEEE additions the interpreter
   performs; short segments use scalar adds — same arithmetic, less
   per-call overhead), dropping to an exact scalar replay only at event
   blocks (L1-I misses, L1-D drains, the warm-up boundary).

Bit-identity is the contract: every floating-point operation matches
the interpreter's order and operand types, so
``SimulationResult``/``EngineStats`` are equal to the last bit and the
engine-selection flag is output-neutral (enforced by the differential
test suite).  Schemes the replay cannot cover (run-ahead modes, custom
predictors) are rejected — :mod:`repro.core.engine_select` falls back
to the interpreter per cell and accounts for it in the run manifest.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.config import MicroarchParams
from repro.core.control import DIVERGE_BTBMISS, DIVERGE_DIR, \
    DIVERGE_TARGET, _prefix, demand_control, ideal_control
from repro.core.frontend import _KIND_COND, _warm_llc_state
from repro.core.metrics import EngineStats, SimulationResult
from repro.errors import SimulationError
from repro.prefetch.base import Scheme
from repro.prefetch.baseline import BaselineScheme, IdealScheme
from repro.uarch.cache import SetAssocCache
from repro.uarch.interconnect import NocModel
# precompute_fold_sequences is not called here (the one fold accessor,
# frontend._fold_sequences, calls it); the name stays importable from
# this module because perfbench/layers.py wraps it here by name.
from repro.uarch.tage import precompute_fold_sequences  # noqa: F401
from repro.workloads.trace import Trace

#: Clock segments shorter than this advance with scalar Python-float
#: adds instead of ``np.add.accumulate`` — numpy's per-call overhead
#: only pays for itself on longer runs.  Both paths perform the same
#: left-to-right IEEE additions, so the cutoff is a speed knob, never a
#: results knob.
_SCALAR_SEGMENT = 32


def supports(scheme: Scheme, predictor=None) -> bool:
    """Whether the columnar engine can replay this cell bit-identically.

    Exact-type checks on purpose: a subclass may override hooks the
    replay does not model (``on_fetch_line``, ``on_retire``), silently
    changing semantics — such schemes fall back to the interpreter.  A
    custom predictor likewise bypasses the trace-derived TAGE replay.
    """
    if predictor is not None:
        return False
    return type(scheme) in (IdealScheme, BaselineScheme)


# ---------------------------------------------------------------------------
# Precomputation passes (cached on ``trace.derived``)
# ---------------------------------------------------------------------------


def _cond_prefix(trace: Trace) -> np.ndarray:
    """Prefix counts of conditional blocks (ideal-mode boundary stats)."""
    cached = trace.derived.get("columnar.cond_prefix")
    if cached is None:
        cached = _prefix(trace.cols.kind == _KIND_COND, len(trace))
        trace.derived["columnar.cond_prefix"] = cached
    return cached


def _access_prefix(trace: Trace) -> np.ndarray:
    """Prefix counts of L1-I demand accesses (1 or 2 lines per block)."""
    cached = trace.derived.get("columnar.access_prefix")
    if cached is None:
        cols = trace.cols
        counts = 1 + (cols.last_line != cols.first_line).astype(np.int64)
        cached = np.zeros(len(trace) + 1, dtype=np.int64)
        np.cumsum(counts, out=cached[1:])
        trace.derived["columnar.access_prefix"] = cached
    return cached


def _memory_events(trace: Trace, params: MicroarchParams) \
        -> Tuple[List[int], List[bool]]:
    """Ordered L1-I demand-miss events as (block index, LLC-hit) lists.

    Replays the L1-I and LLC LRU state machines over the per-block line
    accesses in trace order (first line, then the terminating branch's
    line when different), starting from the program's shared warm-LLC
    snapshot, as the interpreter does.  Hit/miss outcomes are
    clock-free; only the NoC latency of each miss is computed in the
    timing pass.
    """
    key = ("columnar.mem", params.l1i_bytes, params.l1i_assoc,
           params.line_bytes, params.llc_bytes, params.llc_assoc)
    cached = trace.derived.get(key)
    if cached is None:
        hot = trace.hot
        first_lines, last_lines = hot.first_line, hot.last_line
        l1i = SetAssocCache(params.l1i_bytes, params.l1i_assoc,
                            params.line_bytes)
        llc = SetAssocCache(params.llc_bytes, params.llc_assoc,
                            params.line_bytes)
        warm = _warm_llc_state(trace, params)
        if warm is not None:
            llc.restore(warm)
        l1i_probe = l1i.probe_insert
        llc_probe = llc.probe_insert
        ev_block: List[int] = []
        ev_llc_hit: List[bool] = []
        for i in range(len(first_lines)):
            line = first_lines[i]
            if not l1i_probe(line):
                ev_block.append(i)
                ev_llc_hit.append(llc_probe(line))
            last = last_lines[i]
            if last != line and not l1i_probe(last):
                ev_block.append(i)
                ev_llc_hit.append(llc_probe(last))
        cached = (ev_block, ev_llc_hit)
        trace.derived[key] = cached
    return cached


def _l1d_schedule(trace: Trace, rate: float) \
        -> Tuple[List[int], List[int]]:
    """L1-D drain schedule as (block index, miss count) lists.

    Replays the interpreter's fractional accumulator with the identical
    float operations (``accum += ninstr * rate / 1000.0``, drain while
    ``>= 1.0``), so the drain blocks and per-drain miss counts match
    exactly.  The interpreter's in-drain ``+= 0 * rate / 1000.0`` is an
    exact no-op (adds literal ``0.0``) and is elided.
    """
    key = ("columnar.l1d", rate)
    cached = trace.derived.get(key)
    if cached is None:
        blocks: List[int] = []
        counts: List[int] = []
        accum = 0.0
        for i, ninstr in enumerate(trace.hot.ninstr):
            accum += ninstr * rate / 1000.0
            if accum >= 1.0:
                count = 0
                while accum >= 1.0:
                    accum -= 1.0
                    count += 1
                blocks.append(i)
                counts.append(count)
        cached = (blocks, counts)
        trace.derived[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Clock advance
# ---------------------------------------------------------------------------


def _advance(clock: float, addend: np.ndarray, addend_list: List[float],
             start: int, stop: int, buf: np.ndarray) -> float:
    """Fold ``addend[start:stop]`` into *clock*, strictly left to right.

    ``np.add.accumulate`` is a sequential (non-pairwise) reduction, so
    the long path performs exactly the interpreter's add sequence; the
    short path does the same adds as Python floats.
    """
    m = stop - start
    if m <= 0:
        return clock
    if m < _SCALAR_SEGMENT:
        for k in range(start, stop):
            clock += addend_list[k]
        return clock
    seg = buf[:m + 1]
    seg[0] = clock
    seg[1:] = addend[start:stop]
    np.add.accumulate(seg, out=seg)
    return float(seg[m])


# ---------------------------------------------------------------------------
# Timing passes
# ---------------------------------------------------------------------------


def _run_ideal(trace: Trace, params: MicroarchParams, rate: float,
               warmup_fraction: float):
    n = len(trace)
    warmup = int(n * warmup_fraction)
    stats = EngineStats()
    snapshot: Optional[EngineStats] = None

    cols = trace.cols
    misp_arr, misp_list, misp_prefix = ideal_control(trace)
    cond_prefix = _cond_prefix(trace)
    instr_prefix = cols.instr_prefix
    l1d_blocks, l1d_counts = _l1d_schedule(trace, rate)

    issue_width = params.issue_width
    flush = params.flush_penalty
    q = cols.ninstr_f64 / issue_width
    q_list = q.tolist()
    # Expanded addend stream: the interpreter adds a mispredicted
    # conditional's flush penalty to the clock *before* the block's
    # issue quotient (two separate adds), so the flush is inserted
    # ahead of the block's quotient.  Block i's first addend sits at
    # expanded index ``i + misp_prefix[i]``.
    expanded = np.insert(q, np.flatnonzero(misp_arr), float(flush))
    expanded_list = expanded.tolist()
    buf = np.empty(len(expanded) + 1, dtype=np.float64)

    noc_request = NocModel(base_latency=float(params.llc_latency)).request
    memory_extra = 0.15 * params.memory_latency
    exposure = params.l1d_stall_exposure
    l1d_misses = 0
    l1d_fill = 0.0

    special_set = set(l1d_blocks)
    if warmup > 0:
        special_set.add(warmup)
    specials = sorted(special_set)
    n_l1d = len(l1d_blocks)

    clock = 0.0
    ptr = 0
    li = 0
    for s in specials:
        clock = _advance(clock, expanded, expanded_list,
                         ptr + int(misp_prefix[ptr]),
                         s + int(misp_prefix[s]), buf)
        if s == warmup:
            stats.cycles = clock
            stats.conditional_branches = int(cond_prefix[s])
            stats.dir_mispredicts = int(misp_prefix[s])
            stats.stall_dir_flush = float(int(misp_prefix[s]) * flush)
            stats.blocks = s
            stats.instructions = int(instr_prefix[s])
            stats.l1d_misses = l1d_misses
            stats.l1d_fill_cycles = l1d_fill
            snapshot = stats.snapshot()
            if not (li < n_l1d and l1d_blocks[li] == s):
                ptr = s
                continue
        # L1-D drain block: replay it scalar, interpreter op for op.
        if misp_list[s]:
            clock += flush
        clock += q_list[s]
        dstall = 0.0
        for _ in range(l1d_counts[li]):
            latency = noc_request(clock) + memory_extra
            l1d_misses += 1
            l1d_fill += latency
            dstall += latency * exposure
        clock += dstall
        li += 1
        ptr = s + 1
    clock = _advance(clock, expanded, expanded_list,
                     ptr + int(misp_prefix[ptr]),
                     n + int(misp_prefix[n]), buf)

    stats.cycles = clock
    stats.conditional_branches = int(cond_prefix[n])
    stats.dir_mispredicts = int(misp_prefix[n])
    stats.stall_dir_flush = float(int(misp_prefix[n]) * flush)
    stats.blocks = n
    stats.instructions = int(instr_prefix[n])
    stats.l1d_misses = l1d_misses
    stats.l1d_fill_cycles = l1d_fill
    return stats, snapshot, warmup


def _control_stats(stats: EngineStats, miss: bytes, codes: np.ndarray,
                   stop: int, flush: int) -> None:
    """Set the control counters of blocks ``[0, stop)`` on *stats*."""
    counts = np.bincount(codes[:stop], minlength=4).tolist()
    stats.dir_mispredicts = counts[DIVERGE_DIR]
    stats.target_mispredicts = counts[DIVERGE_TARGET]
    stats.btb_misses = miss.count(1, 0, stop)
    stats.stall_dir_flush = float(counts[DIVERGE_DIR] * flush)
    stats.stall_target_flush = float(counts[DIVERGE_TARGET] * flush)
    stats.stall_btb_flush = float(counts[DIVERGE_BTBMISS] * flush)


def _run_demand(trace: Trace, scheme: BaselineScheme,
                params: MicroarchParams, rate: float,
                warmup_fraction: float):
    n = len(trace)
    warmup = int(n * warmup_fraction)
    stats = EngineStats()
    snapshot: Optional[EngineStats] = None

    cols = trace.cols
    miss, outcome = demand_control(trace, scheme.btb.geometry,
                                   params.ras_size)
    codes = np.frombuffer(outcome, dtype=np.uint8)
    mem_blocks, mem_llc_hit = _memory_events(trace, params)
    l1d_blocks, l1d_counts = _l1d_schedule(trace, rate)
    access_prefix = _access_prefix(trace)
    instr_prefix = cols.instr_prefix
    cond_prefix = _cond_prefix(trace)

    issue_width = params.issue_width
    flush = params.flush_penalty
    q = cols.ninstr_f64 / issue_width
    q_list = q.tolist()
    # Per-block addend for event-free blocks: the interpreter computes
    # ``(stall + flush_cycles) + ninstr / issue_width`` with stall == 0.0
    # and adds it to the clock once; ``0.0 + flush`` is exactly
    # ``float(flush)``, so the vectorised form is one identical add.
    addend = np.where(codes != 0, float(flush), 0.0) + q
    addend_list = addend.tolist()
    buf = np.empty(n + 1, dtype=np.float64)

    noc_request = NocModel(base_latency=float(params.llc_latency)).request
    memory_latency = params.memory_latency
    memory_extra = 0.15 * memory_latency
    exposure = params.l1d_stall_exposure
    stall_l1i = 0.0
    l1d_misses = 0
    l1d_fill = 0.0

    special_set = set(mem_blocks) | set(l1d_blocks)
    if warmup > 0:
        special_set.add(warmup)
    specials = sorted(special_set)
    n_mem = len(mem_blocks)
    n_l1d = len(l1d_blocks)

    clock = 0.0
    ptr = 0
    mi = 0
    li = 0
    for s in specials:
        clock = _advance(clock, addend, addend_list, ptr, s, buf)
        if s == warmup:
            stats.cycles = clock
            stats.conditional_branches = int(cond_prefix[s])
            _control_stats(stats, miss, codes, s, flush)
            stats.blocks = s
            stats.instructions = int(instr_prefix[s])
            stats.l1i_demand_accesses = int(access_prefix[s])
            stats.l1i_demand_misses = mi
            stats.llc_requests = mi
            stats.stall_l1i = stall_l1i
            stats.l1d_misses = l1d_misses
            stats.l1d_fill_cycles = l1d_fill
            snapshot = stats.snapshot()
            if not ((mi < n_mem and mem_blocks[mi] == s)
                    or (li < n_l1d and l1d_blocks[li] == s)):
                ptr = s
                continue
        # Event block: replay it scalar, interpreter op for op.  Each
        # L1-I miss is a NoC request at ``clock + stall-so-far`` (the
        # second line's demand sees the first line's fill latency),
        # plus the memory latency when the LLC missed.
        stall = 0.0
        while mi < n_mem and mem_blocks[mi] == s:
            latency = noc_request(clock + stall)
            if not mem_llc_hit[mi]:
                latency = latency + memory_latency
            stall_l1i += latency
            stall += latency
            mi += 1
        fc = flush if outcome[s] else 0.0
        clock += stall + fc + q_list[s]
        if li < n_l1d and l1d_blocks[li] == s:
            dstall = 0.0
            for _ in range(l1d_counts[li]):
                latency = noc_request(clock) + memory_extra
                l1d_misses += 1
                l1d_fill += latency
                dstall += latency * exposure
            clock += dstall
            li += 1
        ptr = s + 1
    clock = _advance(clock, addend, addend_list, ptr, n, buf)

    stats.cycles = clock
    stats.conditional_branches = int(cond_prefix[n])
    _control_stats(stats, miss, codes, n, flush)
    stats.blocks = n
    stats.instructions = int(instr_prefix[n])
    stats.l1i_demand_accesses = int(access_prefix[n])
    stats.l1i_demand_misses = n_mem
    stats.llc_requests = n_mem
    stats.stall_l1i = stall_l1i
    stats.l1d_misses = l1d_misses
    stats.l1d_fill_cycles = l1d_fill
    return stats, snapshot, warmup


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def simulate_columnar(trace: Trace, scheme: Scheme,
                      params: Optional[MicroarchParams] = None,
                      predictor=None,
                      l1d_misses_per_kinstr: float = 10.0,
                      warmup_fraction: float = 0.1) -> SimulationResult:
    """Columnar replay of one cell; same contract as
    :func:`repro.core.frontend.simulate`, bit-identical output."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be in [0, 1)")
    if not supports(scheme, predictor):
        raise SimulationError(
            f"columnar engine cannot replay scheme {scheme.name!r}; "
            f"use the interpreter engine")
    params = params if params is not None else MicroarchParams()
    mode = "ideal" if scheme.ideal else "demand"
    # The same sanctioned observability hook the interpreter uses
    # (DESIGN.md Section 13): a no-op context unless telemetry is on,
    # never anything that can change engine output.
    # repro: allow[RPR002] -- read-only phase timing; off by default
    from repro.obs.profile import engine_phase
    with engine_phase(f"columnar.{mode}", scheme=scheme.name,
                      blocks=len(trace)):
        if scheme.ideal:
            stats, snapshot, warmup = _run_ideal(
                trace, params, l1d_misses_per_kinstr, warmup_fraction)
        else:
            stats, snapshot, warmup = _run_demand(
                trace, scheme, params, l1d_misses_per_kinstr,
                warmup_fraction)
        if warmup == 0 or snapshot is None:
            measured = stats.snapshot()
        else:
            measured = stats.delta_from(snapshot)
        if measured.instructions <= 0:
            raise SimulationError(
                "measured window contains no instructions")
    return SimulationResult(scheme=scheme.name, stats=measured)
