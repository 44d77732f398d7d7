"""Synthetic server-program generator.

Server stacks (Section 1 of the paper) are deep: a request traverses a web
server, application logic, database engine and kernel I/O paths.  We model
this as a *layered* call graph:

* layer 0 holds the request-type entry points ("roots"),
* middle layers hold application/library functions,
* the last layer holds kernel trap handlers (entered via TRAP, left via
  TRAP_RET).

Calls always target a strictly deeper layer, which bounds dynamic call
depth by construction and matches the paper's observation that global
control flow forms call/return chains through the stack.  Function hotness
within a layer follows a Zipf distribution, and each call site prefers a
small cluster of callees (modelling modular software).  Conditional
branches inside functions have short forward offsets or short backward
loop offsets, giving the high intra-region spatial locality of Figure 3.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cfg.draws import Draws
from repro.cfg.model import CondBehavior, Program
from repro.errors import ProgramError
from repro.isa import BranchKind

# Plain-int column values of the kinds and outcome models drawn here.
_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_RET = int(BranchKind.RET)
_TRAP = int(BranchKind.TRAP)
_TRAP_RET = int(BranchKind.TRAP_RET)
_BIASED = int(CondBehavior.BIASED)
_LOOP = int(CondBehavior.LOOP)
_ALTERNATE = int(CondBehavior.ALTERNATE)


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic program generator.

    The six workload profiles in :mod:`repro.workloads.profiles` are
    expressed as instances of this class; see that module for the
    calibration rationale.
    """

    #: Total number of functions, including roots and kernel handlers.
    n_functions: int = 2000
    #: Call-graph layers (software-stack depth).
    n_layers: int = 8
    #: Request-type entry points in layer 0.
    n_roots: int = 12
    #: Fraction of functions placed in the kernel (last) layer.
    kernel_fraction: float = 0.12
    #: Median basic blocks per function (lognormal).
    median_blocks: float = 9.0
    #: Lognormal sigma of blocks-per-function.
    sigma_blocks: float = 0.65
    #: Mean instructions per basic block (clipped to [2, 15]).
    mean_block_instrs: float = 5.5
    #: Fraction of non-terminator blocks ending in a CALL.
    call_fraction: float = 0.14
    #: Fraction of non-terminator blocks ending in an unconditional JUMP.
    jump_fraction: float = 0.05
    #: Fraction of non-terminator blocks ending in a TRAP (kernel entry).
    trap_fraction: float = 0.015
    #: Fraction of call sites that are indirect (several candidates).
    indirect_fraction: float = 0.08
    #: Candidate callees at an indirect call site.
    indirect_fanout: int = 4
    #: Zipf exponent for callee popularity within a layer.
    zipf_callee: float = 0.85
    #: Zipf exponent for request-type (root) popularity.
    zipf_root: float = 0.7
    #: Callee-cluster width per call site, as a fraction of the layer.
    cluster_fraction: float = 0.25
    #: Fraction of conditional branches that are loop back-edges.
    loop_fraction: float = 0.20
    #: Fraction of conditional branches that strictly alternate.
    alternate_fraction: float = 0.03
    #: Taken-probability of strongly biased conditionals.  Biased
    #: outcomes are drawn i.i.d., so ``1 - hot_bias`` is an irreducible
    #: misprediction floor; 0.96 puts TAGE around the 3-6 direction
    #: mispredictions per kilo-instruction typical of server workloads.
    hot_bias: float = 0.97
    #: Fraction of biased conditionals that are strongly biased; the rest
    #: draw a bias uniformly from [0.3, 0.7] (data-dependent branches that
    #: no predictor can learn).
    hot_bias_fraction: float = 0.94
    #: Mean loop trip count for LOOP conditionals.
    mean_loop_trips: float = 6.0
    #: Scale applied to ``call_fraction`` inside kernel functions, which
    #: call sideways (higher-fid kernel helpers) rather than deeper.
    kernel_call_scale: float = 0.25
    #: Probability a call targets the *next* layer; deeper layers follow
    #: a geometric decay.  Calls never enter the kernel layer directly —
    #: kernel handlers are reached via TRAP blocks only.
    layer_skip_decay: float = 0.6
    #: RNG seed for program construction.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ProgramError("need at least 3 layers (roots, app, kernel)")
        if self.n_functions < self.n_layers * 2:
            raise ProgramError("too few functions for the layer count")
        if self.n_roots < 1:
            raise ProgramError("need at least one root function")
        fractions = (self.call_fraction, self.jump_fraction,
                     self.trap_fraction, self.kernel_fraction,
                     self.indirect_fraction, self.loop_fraction,
                     self.alternate_fraction, self.hot_bias_fraction,
                     self.cluster_fraction)
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ProgramError("all fractions must lie in [0, 1]")
        if self.call_fraction + self.jump_fraction + self.trap_fraction >= 1:
            raise ProgramError("block-kind fractions must sum below 1")
        if not 0.5 <= self.hot_bias <= 1.0:
            raise ProgramError("hot_bias must lie in [0.5, 1.0]")


@dataclass
class GeneratedProgram:
    """A program plus the execution metadata the trace generator needs."""

    program: Program
    roots: List[int]
    root_weights: np.ndarray
    kernel_fids: List[int]
    params: GeneratorParams = field(repr=False, default=None)

    @property
    def nfunctions(self) -> int:
        return self.program.nfunctions


def _zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf(s) weights over n ranks."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def choice_cdf(weights: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice`` builds from ``p=weights``.

    ``rng.choice(n, size=k, p=weights)`` normalises ``weights.cumsum()``
    by its last element and inverts ``rng.random(k)`` through it with a
    right-sided search.  Computing the CDF once and drawing with
    ``bisect_right(cdf, u)`` for each ``u`` in ``rng.random(k)`` consumes
    the same stream and returns the same indices, without rebuilding and
    re-validating the weights at every draw.
    """
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _layer_sizes(params: GeneratorParams) -> List[int]:
    """Split functions across layers: roots, app layers, kernel."""
    kernel = max(2, int(round(params.n_functions * params.kernel_fraction)))
    roots = params.n_roots
    remaining = params.n_functions - kernel - roots
    mid_layers = params.n_layers - 2
    if remaining < mid_layers:
        raise ProgramError("not enough functions for the middle layers")
    # Middle layers grow with depth: utility/leaf code outnumbers
    # entry-point code in real stacks.
    raw = np.linspace(1.0, 2.0, mid_layers)
    sizes = np.maximum(1, np.floor(raw / raw.sum() * remaining)).astype(int)
    sizes[-1] += remaining - sizes.sum()
    return [roots] + list(sizes) + [kernel]


def _draw_block_count(draws: Draws, params: GeneratorParams) -> int:
    mu = np.log(params.median_blocks)
    count = int(round(float(draws.lognormal(mu, params.sigma_blocks))))
    return min(max(count, 2), 64)


def _pick_callees(draws: Draws, params: GeneratorParams,
                  target_pool: Sequence[int], cluster_base: int,
                  indirect: bool,
                  cdfs: Dict[int, List[float]]) -> Tuple[int, ...]:
    """Choose callee fid(s) from a deeper-layer pool with clustering.

    Callee ranks within the cluster are Zipf(``zipf_callee``)-distributed;
    *cdfs* memoises their CDF per cluster width for one program (its
    params, hence the exponent, are fixed).
    """
    pool_size = len(target_pool)
    cluster = max(1, int(pool_size * params.cluster_fraction))
    cdf = cdfs.get(cluster)
    if cdf is None:
        cdf = cdfs[cluster] = choice_cdf(
            _zipf_weights(cluster, params.zipf_callee))
    count = params.indirect_fanout if indirect else 1
    # The draws of rng.choice(cluster, size=count, p=weights).
    fids = tuple(
        int(target_pool[(cluster_base + bisect_right(cdf, u)) % pool_size])
        for u in draws.random(count)
    )
    # Deduplicate while preserving order; an indirect site may legitimately
    # collapse to fewer distinct targets.
    seen: List[int] = []
    for fid in fids:
        if fid not in seen:
            seen.append(fid)
    return tuple(seen)


def _pick_call_pool(draws: Draws, params: GeneratorParams,
                    layer: int, layer_pools: List[List[int]],
                    fid: int, is_kernel: bool) -> List[int]:
    """Candidate-callee pool for one call site.

    Application calls target the next layer with probability
    ``layer_skip_decay``, skipping deeper with geometric decay, and never
    enter the kernel layer directly.  Kernel calls target higher-fid
    kernel helpers (acyclic sideways calls).
    """
    if is_kernel:
        return [other for other in layer_pools[-1] if other > fid]
    last_app_layer = len(layer_pools) - 2
    if layer >= last_app_layer:
        return []
    skip = 0
    while (draws.random() > params.layer_skip_decay
           and layer + 1 + skip < last_app_layer):
        skip += 1
    return layer_pools[layer + 1 + skip]


#: One block in generation order: ``(ninstr, kind, taken_succ, behavior,
#: behavior_param, ncallees)``, with a function-local successor (-1
#: where unused).  Its ``ncallees`` pre-layout callee fids follow the
#: earlier blocks' on one flat list.
BlockRow = Tuple[int, int, int, int, float, int]

#: :data:`BlockRow` as a numpy record, so rows become columns through
#: ``np.fromiter``.  A function has at most 64 blocks, so a local
#: successor fits a byte.
_ROW_DTYPE = np.dtype([("ninstr", np.int8), ("kind", np.int8),
                       ("taken_succ", np.int8), ("behavior", np.int8),
                       ("behavior_param", np.float64),
                       ("ncallees", np.int32)])

#: Pending rows are packed into typed column chunks, between functions,
#: once at least this many wait.  A row tuple costs about 100 bytes
#: where its columns cost 16, so generating oracle (76.7k blocks) holds
#: at most about one chunk of tuples and peaks about 3.3 MB of Python
#: allocations above what it keeps, not 15 MB.  Small chunks also keep
#: each temporary well under 1 MB: freeing an array of several MB raises
#: glibc's dynamic mmap threshold, and the process then keeps more
#: freed memory resident.
_ROW_CHUNK = 16_384


def _pack_rows(rows: List[BlockRow],
               chunks: Dict[str, List[np.ndarray]]) -> None:
    """Move *rows* onto *chunks*, one typed array per
    :data:`_ROW_DTYPE` field, and empty *rows*."""
    packed = np.fromiter(rows, dtype=_ROW_DTYPE, count=len(rows))
    for name, column in chunks.items():
        column.append(np.ascontiguousarray(packed[name]))
    rows.clear()


def _build_function(draws: Draws, params: GeneratorParams,
                    fid: int, layer: int, layer_pools: List[List[int]],
                    is_kernel: bool, cdfs: Dict[int, List[float]],
                    rows: List[BlockRow], callee_fids: array) -> int:
    """Draw one function's blocks onto the end of *rows*, and their
    callees onto the end of *callee_fids*; returns how many it drew.

    Every draw is made inline, in program order, by the same method:
    the block-kind roll, then the block length, then the kind's own
    draws.  A conditional block draws its length a second time (the
    first draw is discarded), which is part of the pinned stream.  The
    first roll and the lengths are read from the buffer inline
    (``u[i]``); the rest are :class:`Draws` method calls.

    Loop back-edges never span a call or trap block: a loop body that
    re-descends a call subtree on every iteration would concentrate
    dynamic execution into a handful of leaf functions, which is neither
    realistic nor compatible with the paper's wide instruction working
    sets (loop bodies in server code are small; the deep call chains
    happen per-request, not per-iteration).
    """
    u = draws.u
    ensure = draws.ensure
    random = draws.random
    integers = draws.integers
    # Geometric-ish block length with the requested mean: 2 plus a
    # Poisson draw, clipped to 15 so the 5-bit BTB size field encodes it.
    mean_extra = max(0.1, params.mean_block_instrs - 2)
    # The Poisson draw read inline is numpy's multiplication method: it
    # multiplies ``u`` until the product is ``<= limit``.  A product not
    # above ``floor`` is drawn again by ``draws.poisson``: a 0 means the
    # product ran into the buffer's end, and from mean 10 up, where
    # numpy switches method, every draw goes there.
    if mean_extra < 10:
        limit, floor = math.exp(-mean_extra), 0.0
    else:
        limit = floor = 1.0

    def block_length(j: int) -> int:
        """``2 + poisson(mean_extra)`` clipped to 15, its first factor
        ``u[j]``; leaves the cursor after the draw."""
        product = u[j]
        i = j + 1
        while product > limit:
            product *= u[i]
            i += 1
        if product > floor:
            draws.i = i
            ninstr = 1 + i - j
        else:
            draws.i = j
            ninstr = 2 + draws.poisson(mean_extra)
        return 15 if ninstr > 15 else ninstr

    loop_fraction = params.loop_fraction
    alternate_bound = loop_fraction + params.alternate_fraction
    hot_bias_fraction = params.hot_bias_fraction
    hot_bias = params.hot_bias
    cold_bias = 1 - hot_bias
    call_fraction = params.call_fraction
    if is_kernel:
        call_fraction *= params.kernel_call_scale
    jump_bound = call_fraction + params.jump_fraction
    trap_bound = jump_bound + params.trap_fraction
    can_trap = (layer < len(layer_pools) - 1 and bool(layer_pools[-1])
                and not is_kernel)
    CALL, TRAP, COND = _CALL, _TRAP, _COND
    BIASED, LOOP = _BIASED, _LOOP
    append = rows.append
    extend_callees = callee_fids.extend
    base = len(rows)

    nblocks = _draw_block_count(draws, params)
    last = nblocks - 1
    for idx in range(last):
        i = ensure(2)
        roll = u[i]
        ninstr = block_length(i + 1)
        if roll < call_fraction:
            pool = _pick_call_pool(draws, params, layer, layer_pools, fid,
                                   is_kernel)
            if pool:
                cluster_base = integers(0, len(pool))
                callees = _pick_callees(
                    draws, params, pool, cluster_base,
                    indirect=random() < params.indirect_fraction,
                    cdfs=cdfs,
                )
                append((ninstr, CALL, -1, BIASED, 0.5, len(callees)))
                extend_callees(callees)
                continue
        elif roll < jump_bound:
            target = min(last, idx + 1 + integers(0, 6))
            append((ninstr, _JUMP, target, BIASED, 0.5, 0))
            continue
        elif roll < trap_bound and can_trap:
            kernel_pool = layer_pools[-1]
            cluster_base = integers(0, len(kernel_pool))
            callees = _pick_callees(draws, params, kernel_pool,
                                    cluster_base, indirect=False, cdfs=cdfs)
            append((ninstr, TRAP, -1, BIASED, 0.5, len(callees)))
            extend_callees(callees)
            continue

        # A conditional block: ninstr = 2 + poisson(mean_extra) again,
        # then its roll.
        ninstr = block_length(ensure(1))
        roll = random()
        if roll < loop_fraction and idx > 0:
            # Largest backward span ending at this block that crosses
            # neither a call/trap (see above) nor another loop branch —
            # nested same-function loops would multiply trip counts (6^k
            # dynamic iterations for k nested levels) and trap the whole
            # trace window inside one function.
            span = 0
            while span < 4 and idx - 1 - span >= 0:
                previous = rows[base + idx - 1 - span]
                kind = previous[1]
                if kind == CALL or kind == TRAP:
                    break
                if kind == COND and previous[3] == LOOP:
                    break
                span += 1
            if span > 0:
                target = idx - 1 - integers(0, span)
                trips = max(2.0, draws.exponential(params.mean_loop_trips))
                append((ninstr, COND, target, LOOP, float(trips), 0))
                continue
        if roll < alternate_bound:
            target = min(last, idx + 1 + integers(0, 3))
            append((ninstr, COND, target, _ALTERNATE, 0.5, 0))
            continue
        # Forward short-offset biased branch (if/else, error checks).
        target = min(last, idx + 1 + integers(0, 4))
        if random() < hot_bias_fraction:
            bias = hot_bias if random() < 0.5 else cold_bias
        else:
            bias = draws.uniform(0.3, 0.7)
        append((ninstr, COND, target, BIASED, bias, 0))
    append((block_length(ensure(1)), _TRAP_RET if is_kernel else _RET, -1,
            BIASED, 0.5, 0))
    return nblocks


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``starts[i]:starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    runs = np.repeat(starts - (ends - lengths), lengths)
    runs += np.arange(len(runs))
    return runs


def generate_program(params: GeneratorParams) -> GeneratedProgram:
    """Generate a layered synthetic server program.

    Deterministic for a given ``params`` (including its seed): its draws
    are those of ``numpy.random.default_rng(params.seed)``, read through
    :class:`~repro.cfg.draws.Draws`, and their order and methods are
    pinned (``tests/golden/workloads.json``).
    """
    draws = Draws(params.seed)
    sizes = _layer_sizes(params)

    # Assign dense fids layer by layer so the Program invariant holds.
    layer_pools: List[List[int]] = []
    next_fid = 0
    for size in sizes:
        layer_pools.append(list(range(next_fid, next_fid + size)))
        next_fid += size

    # Callee-rank CDFs by cluster width, shared by every call site.
    cdfs: Dict[int, List[float]] = {}
    # Rows not yet packed, and the packed chunks of each column.
    rows: List[BlockRow] = []
    chunks: Dict[str, List[np.ndarray]] = {
        name: [] for name in _ROW_DTYPE.names}
    callee_fids = array("q")
    nblocks = []
    for layer, pool in enumerate(layer_pools):
        for fid in pool:
            nblocks.append(_build_function(
                draws, params, fid, layer, layer_pools,
                layer == len(layer_pools) - 1, cdfs, rows, callee_fids))
            if len(rows) >= _ROW_CHUNK:
                _pack_rows(rows, chunks)
    _pack_rows(rows, chunks)

    # Shuffle the *layout order* (not the fids) so that functions that call
    # each other are not artificially adjacent in the address space.
    order = draws.permutation(len(nblocks))
    relabel = np.empty_like(order)
    relabel[order] = np.arange(len(order))

    # Layout block j is generation block ``blocks[j]``: each function's
    # run, taken in layout order.  Each column is joined from its chunks
    # and laid out in turn, so one generation-order column is alive at a
    # time.  A function's callees are one run of ``callee_fids`` too.
    sizes = np.array(nblocks, dtype=np.int64)
    lengths = sizes[order]
    func_start = np.concatenate(([0], np.cumsum(lengths)))
    blocks = _runs(np.concatenate(([0], np.cumsum(sizes)))[order], lengths)

    def laid_out(name: str) -> np.ndarray:
        return np.concatenate(chunks.pop(name))[blocks]

    callee_start = np.concatenate(([0], np.cumsum(laid_out("ncallees"))))
    counts = np.diff(callee_start[func_start])
    callees = relabel[np.frombuffer(callee_fids, dtype=np.int64)[_runs(
        np.concatenate(([0], np.cumsum(counts[relabel])))[order], counts)]]
    # Local successors become global.
    taken_succ = laid_out("taken_succ").astype(np.int32)
    targeted = taken_succ >= 0
    taken_succ[targeted] += np.repeat(func_start[:-1], lengths)[targeted]
    columns = {name: laid_out(name) for name in list(chunks)}
    # Dropped before the constructor's validation allocates its own.
    del blocks, targeted
    # The kernel layer is last, so it holds the highest pre-layout fids.
    program = Program(taken_succ=taken_succ, callee_start=callee_start,
                      callees=callees, func_start=func_start,
                      is_kernel=order >= layer_pools[-1][0], **columns)
    relabel = relabel.tolist()
    roots = [relabel[f] for f in layer_pools[0]]
    kernel_fids = [relabel[f] for f in layer_pools[-1]]
    return GeneratedProgram(
        program=program,
        roots=roots,
        root_weights=_zipf_weights(len(roots), params.zipf_root),
        kernel_fids=kernel_fids,
        params=params,
    )
