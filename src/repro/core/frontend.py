"""Decoupled front-end timing engine.

The engine replays a retire-order basic-block trace (correct path only)
against a control-flow delivery scheme and accounts cycles.  The timing
model (see DESIGN.md Section 4) has three coupled actors:

* **BPU** — for run-ahead schemes (FDIP/Boomerang/Shotgun), a branch
  prediction unit walks the trace up to ``ftq_size`` blocks ahead of
  fetch at one block per cycle, querying the scheme's BTBs, the TAGE
  direction predictor and the RAS — or reading their outcomes from
  clock-free replays (:mod:`repro.core.control`) where those never read
  the clock.  Each enqueued block triggers L1-I prefetch probes; BTB
  misses are handled per the scheme's miss policy (speculate /
  stall-and-fill / discover-at-execute).
* **Fetch** — consumes enqueued blocks in order.  A block cannot be
  fetched before the BPU enqueued it (fetch starvation — how Boomerang's
  fill stalls hurt), and each cache line it touches either hits, is
  promoted from the prefetch buffer, waits out the residual latency of an
  in-flight prefetch, or stalls for a full demand fill.
* **Back-end** — retires ``issue_width`` instructions per cycle; flush
  penalties are charged when a misprediction or BTB miss is discovered
  at execute.

Mispredictions poison the run-ahead: the BPU parks at the offending
block, the flush penalty is charged when fetch reaches it, and the BPU
restarts from the resolve time — so every mispredict also costs prefetch
lookahead, exactly as in a real decoupled front-end.

Performance notes (DESIGN.md Section 7): the run loops are written for
CPython throughput.  Trace columns are read from :attr:`Trace.hot`
(native lists, precomputed line indices and fall-through pcs, shared
across every scheme simulated on the trace), frequently-called bound
methods are hoisted into locals outside the loop, and the hottest
counters accumulate in local variables that are flushed into
:class:`EngineStats` only at the warm-up boundary and at the end of the
run.  The in-flight prefetch set is paired with a ready-time-ordered
heap so draining arrived fills is O(arrived · log n) instead of a full
scan of the in-flight dict.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.config import MicroarchParams
from repro.core.metrics import EngineStats, SimulationResult
from repro.errors import SimulationError
from repro.isa import BranchKind
from repro.prefetch.base import MissPolicy, Scheme
from repro.uarch.cache import PrefetchBuffer, SetAssocCache
from repro.uarch.interconnect import NocModel
from repro.uarch.ras import ReturnAddressStack
from repro.uarch.tage import FoldSequences, PrecomputedHistoryTage, \
    TagePredictor, fold_sequence_arrays
# The list form is not called here; the name stays importable from this
# module because perfbench/layers.py wraps it here by name.
from repro.uarch.tage import precompute_fold_sequences  # noqa: F401
from repro.workloads.trace import Trace

#: How many in-flight entries may accumulate before arrived lines are
#: drained into the prefetch buffer.  Kept near the real MSHR population
#: (~LLC latency x issue rate): arrived lines must move into the *bounded*
#: prefetch buffer promptly, otherwise the in-flight set acts as an
#: unbounded buffer and over-prefetching costs nothing (it must displace
#: useful prefetches, as in the paper's Figures 9-10).
_INFLIGHT_DRAIN_THRESHOLD = 32

_KIND_COND = int(BranchKind.COND)
_KIND_JUMP = int(BranchKind.JUMP)
_KIND_CALL = int(BranchKind.CALL)
_KIND_RET = int(BranchKind.RET)
_KIND_TRAP = int(BranchKind.TRAP)
_KIND_TRAP_RET = int(BranchKind.TRAP_RET)
_CALL_KINDS = (_KIND_CALL, _KIND_TRAP)
_RET_KINDS = (_KIND_RET, _KIND_TRAP_RET)

#: ``BranchKind`` objects indexed by raw kind value, so the loops hand
#: schemes real enum members without paying ``BranchKind(kind)`` per call.
_KIND_OBJS: Tuple[BranchKind, ...] = tuple(
    BranchKind(value) for value in sorted(int(k) for k in BranchKind)
)


def _fold_sequences(trace: Trace) -> FoldSequences:
    """The trace's TAGE folded-history sequences, computed once.

    The engines train the direction predictor on every conditional block
    in retire order, so the folded-history sequences are a pure function
    of the trace; they are cached on ``trace.derived`` as narrow arrays
    and shared by every scheme simulated on the trace, in either engine
    (each predictor unpacks its own lists).
    """
    seqs = trace.derived.get("tage_folds")
    if seqs is None:
        seqs = fold_sequence_arrays(trace.kind, trace.taken, _KIND_COND)
        trace.derived["tage_folds"] = seqs
    return seqs


def _trace_predictor(trace: Trace) -> TagePredictor:
    """Default TAGE for *trace*, replaying its folded histories.

    Predictions are bit-identical to a plain :class:`TagePredictor`.
    """
    return PrecomputedHistoryTage(_fold_sequences(trace))


def _warm_llc_state(trace: Trace, params: MicroarchParams) \
        -> Optional[Tuple[tuple, ...]]:
    """The warmed LLC a cell starts from, or None without a program.

    The state an empty LLC reaches by inserting every line of the
    program image in image order (:meth:`SetAssocCache.preload`, from
    the image's line column).  It depends only on the image and the
    LLC geometry, so it is built once per program and geometry, kept on
    ``program.derived`` as a read-only :meth:`SetAssocCache.snapshot`,
    and shared by every cell of every trace of the program in both
    engines; each cell's cache copies a set only when it first writes
    to it.
    """
    if trace.generated is None:
        return None
    program = trace.generated.program
    key = ("warm_llc", params.llc_bytes, params.llc_assoc, params.line_bytes)
    state = program.derived.get(key)
    if state is None:
        llc = SetAssocCache(params.llc_bytes, params.llc_assoc,
                            params.line_bytes)
        llc.preload(program.image.lines)
        state = program.derived[key] = llc.snapshot()
    return state


def _static_target_map(trace: Trace) -> Dict[int, int]:
    """Static taken-targets of the trace's program, or none without one.

    See :attr:`repro.cfg.model.Program.static_targets`; shared by both
    engines.
    """
    if trace.generated is None:
        return {}
    return trace.generated.program.static_targets


def _hook(scheme: Scheme, name: str):
    """*scheme*'s bound hook *name*, or None if it keeps the base no-op."""
    if getattr(type(scheme), name) is getattr(Scheme, name):
        return None
    return getattr(scheme, name)


class FrontEnd:
    """Trace-driven front-end simulation of one scheme.

    Args:
        trace: retire-order trace (see :mod:`repro.workloads`).
        scheme: a :class:`repro.prefetch.Scheme`.
        params: microarchitectural parameters.
        predictor: direction predictor; defaults to an 8KB TAGE.  Passing
            one keeps a run-ahead cell on calls to its BTBs, predictor
            and RAS instead of the replayed control columns.
        l1d_misses_per_kinstr: synthetic data-miss rate for the NoC-load
            model (Figure 11).
        warmup_fraction: leading fraction of the trace excluded from the
            measured statistics (structures still train during it).
        warm_llc: preload the program's instruction lines into the LLC.
            The paper's SMARTS checkpoints include warmed caches, and the
            multi-MB instruction footprints fit comfortably in the 8MB
            LLC, so instruction fills come from the LLC, not memory.
    """

    def __init__(self, trace: Trace, scheme: Scheme,
                 params: Optional[MicroarchParams] = None,
                 predictor=None,
                 l1d_misses_per_kinstr: float = 10.0,
                 warmup_fraction: float = 0.1,
                 warm_llc: bool = True) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError("warmup_fraction must be in [0, 1)")
        self.trace = trace
        self.scheme = scheme
        self.params = params if params is not None else MicroarchParams()
        #: None selects the trace's default TAGE: built on first use, or
        #: never when the cell reads replayed control columns instead.
        self.predictor = predictor
        self.l1d_rate = l1d_misses_per_kinstr
        self.warmup_fraction = warmup_fraction

        p = self.params
        self.l1i = SetAssocCache(p.l1i_bytes, p.l1i_assoc, p.line_bytes)
        self.llc = SetAssocCache(p.llc_bytes, p.llc_assoc, p.line_bytes)
        self.pf_buffer = PrefetchBuffer(p.l1i_prefetch_buffer)
        self.noc = NocModel(base_latency=float(p.llc_latency))
        self.ras = ReturnAddressStack(p.ras_size)
        self.stats = EngineStats()
        self._inflight: Dict[int, float] = {}
        #: Ready-time-ordered view of ``_inflight``; entries whose line
        #: was demanded (and popped from the dict) or re-issued become
        #: stale and are skipped on pop.
        self._inflight_heap: List[Tuple[float, int]] = []
        self._l1d_accum = 0.0
        self._ran = False

        # Hot-path bindings: resolved once so the per-line helpers avoid
        # repeated attribute chains.  A hook is None when the scheme keeps
        # the base no-op, so the engine skips the call (and, for
        # ``on_fetch_line``, an empty-list allocation per fetched line).
        self._on_prefetch_arrival = _hook(scheme, "on_prefetch_arrival")
        self._l1i_latency = p.l1i_latency
        self._on_fetch_line = _hook(scheme, "on_fetch_line")

        self._static_targets: Dict[int, int] = _static_target_map(trace)
        if warm_llc:
            warm = _warm_llc_state(trace, p)
            if warm is not None:
                self.llc.restore(warm)

    def _predict_update(self):
        """The direction predictor's fused predict+train entry point.

        Builds the default predictor on first use.  Predictors without
        a fused ``predict_update`` (custom test doubles) get a thin
        wrapper with identical semantics.
        """
        if self.predictor is None:
            self.predictor = _trace_predictor(self.trace)
        predictor = self.predictor
        predict_update = getattr(predictor, "predict_update", None)
        if predict_update is None:
            def predict_update(pc: int, taken: bool,
                               _predict=predictor.predict,
                               _update=predictor.update) -> bool:
                predicted = _predict(pc)
                _update(pc, taken)
                return predicted
        return predict_update

    def _fill_target(self, pc: int, taken: bool, target: int) -> int:
        """Target to install in a BTB entry for the block at *pc*."""
        if taken:
            return target
        return self._static_targets.get(pc, target)

    # ------------------------------------------------------------------
    # Memory-side helpers
    # ------------------------------------------------------------------

    def _hierarchy_fill(self, line: int, now: float) -> float:
        """Latency to fetch *line* from LLC (or memory beyond it)."""
        self.stats.llc_requests += 1
        latency = self.noc.request(now)
        if self.llc.lookup(line):
            return latency
        self.llc.insert(line)
        return latency + self.params.memory_latency

    def _issue_prefetch(self, line: int, now: float) -> None:
        """Issue a prefetch probe for *line* unless already covered.

        A probe that finds the line already resident (L1-I or prefetch
        buffer) still feeds the predecoder: the line's branch metadata is
        extracted and proactively installed (Shotgun's C-BTB fill,
        Confluence's BTB fill) after an L1-I read.  Without this, hot
        regions — whose lines never leave the L1-I — would never be
        proactively predecoded and a small C-BTB would thrash.
        """
        # Inlined ``l1i.contains`` / ``line in pf_buffer`` (no LRU or
        # counter side effects, same semantics, no method-call round trip
        # — this runs once per prefetch probe).
        l1i = self.l1i
        if line in l1i._sets[line & l1i._set_mask] \
                or line in self.pf_buffer._lines:
            if self._on_prefetch_arrival is not None:
                self._on_prefetch_arrival(line, now + self._l1i_latency)
            return
        if line in self._inflight:
            return
        ready = now + self._hierarchy_fill(line, now)
        self._inflight[line] = ready
        heap = self._inflight_heap
        heappush(heap, (ready, line))
        self.stats.prefetch_issued += 1
        if self._on_prefetch_arrival is not None:
            self._on_prefetch_arrival(line, ready)
        if len(self._inflight) > _INFLIGHT_DRAIN_THRESHOLD:
            self._drain_inflight(now)
        elif len(heap) > _INFLIGHT_DRAIN_THRESHOLD * 4 \
                and len(heap) > 4 * len(self._inflight):
            # Demand promotion pops the dict but leaves the heap tuple;
            # with timely prefetches the dict stays small while stale
            # tuples pile up, so rebuild from the live set when stale
            # entries dominate.  Drain semantics are unchanged: the live
            # (ready, line) pairs are exactly preserved.
            heap = [(ready, line)
                    for line, ready in self._inflight.items()]
            heapify(heap)
            self._inflight_heap = heap

    def _drain_inflight(self, now: float) -> None:
        """Move arrived (never-demanded) fills into the prefetch buffer.

        Pops the ready-time heap instead of scanning the whole in-flight
        dict, so the cost is O(arrived · log n).  Heap entries whose line
        was already demand-promoted (or superseded by a newer fill of the
        same line) no longer match the dict and are simply discarded.

        Lines enter the (FIFO) prefetch buffer in *arrival* order —
        the physically faithful order, and a deliberate refinement over
        the seed engine's dict scan, which inserted a drained batch in
        issue order.  Under NoC contention the two orders can pick
        different FIFO eviction victims, so heavily over-prefetching
        configurations (e.g. the 5-Blocks footprint ablation) show
        ulp-level stat differences vs. the seed engine.
        """
        heap = self._inflight_heap
        inflight = self._inflight
        pf_insert = self.pf_buffer.insert
        while heap and heap[0][0] <= now:
            ready, line = heappop(heap)
            if inflight.get(line) == ready:
                del inflight[line]
                pf_insert(line)

    def _demand_line(self, line: int, now: float) -> float:
        """Fetch-side access to *line*; returns stall cycles."""
        stats = self.stats
        stats.l1i_demand_accesses += 1
        fetch_hook = self._on_fetch_line
        # Inlined ``l1i.lookup`` hit path (same LRU move and counters):
        # the common case is a hit, once per line of every fetched block.
        # A hit set is always an owned dict: the L1-I starts empty, and
        # no line is ever found in its shared read-only empty set.
        l1i = self.l1i
        cache_set = l1i._sets[line & l1i._set_mask]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            l1i.hits += 1
            if fetch_hook is not None:
                for req_line, earliest in fetch_hook(line, True, now):
                    self._issue_prefetch(req_line, max(earliest, now))
            return 0.0
        l1i.misses += 1
        if self.pf_buffer.consume(line):
            l1i.insert(line)
            stats.prefetch_used += 1
            if fetch_hook is not None:
                for req_line, earliest in fetch_hook(line, True, now):
                    self._issue_prefetch(req_line, max(earliest, now))
            return 0.0
        ready = self._inflight.pop(line, None)
        if ready is not None:
            l1i.insert(line)
            stats.prefetch_used += 1
            residual = ready - now
            if residual > 0:
                stats.l1i_late_prefetches += 1
                stats.stall_l1i += residual
            else:
                residual = 0.0
            if fetch_hook is not None:
                for req_line, earliest in fetch_hook(line, True, now):
                    self._issue_prefetch(req_line, max(earliest, now))
            return residual
        # Uncovered demand miss.
        stats.l1i_demand_misses += 1
        requests = fetch_hook(line, False, now) if fetch_hook is not None \
            else ()
        latency = self._hierarchy_fill(line, now)
        l1i.insert(line)
        stats.stall_l1i += latency
        for req_line, earliest in requests:
            self._issue_prefetch(req_line, max(earliest, now))
        return latency

    def _line_ready_for_fill(self, line: int, now: float) -> float:
        """Time the line needed by a reactive BTB fill is available."""
        if self.l1i.contains(line) or line in self.pf_buffer:
            return now + self.params.l1i_latency
        ready = self._inflight.get(line)
        if ready is not None:
            return max(ready, now)
        latency = self._hierarchy_fill(line, now)
        ready = now + latency
        # The fetched line is installed as a prefetch: Boomerang pulls the
        # whole block in, so a later demand access finds it.
        self._inflight[line] = ready
        heappush(self._inflight_heap, (ready, line))
        self.stats.prefetch_issued += 1
        if self._on_prefetch_arrival is not None:
            self._on_prefetch_arrival(line, ready)
        return ready

    def _l1d_traffic(self, ninstr: int, now: float) -> float:
        """Generate synthetic data-side LLC traffic (Figure 11).

        Returns the back-end stall cycles the misses expose: an OoO core
        hides part of each fill latency, the rest stalls retirement
        (``l1d_stall_exposure``).  This is what makes NoC congestion from
        over-prefetching cost actual performance.
        """
        self._l1d_accum += ninstr * self.l1d_rate / 1000.0
        stall = 0.0
        noc_request = self.noc.request
        memory_extra = 0.15 * self.params.memory_latency
        exposure = self.params.l1d_stall_exposure
        stats = self.stats
        while self._l1d_accum >= 1.0:
            self._l1d_accum -= 1.0
            # A fixed fraction of data misses falls through to memory.
            latency = noc_request(now) + memory_extra
            stats.l1d_misses += 1
            stats.l1d_fill_cycles += latency
            stall += latency * exposure
        return stall

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate the whole trace; returns measured-window metrics."""
        if self._ran:
            raise SimulationError("engine instances are single-use")
        self._ran = True
        if self.scheme.ideal:
            mode, runner = "ideal", self._run_ideal
        elif self.scheme.runahead:
            mode, runner = "runahead", self._run_runahead
        else:
            mode, runner = "demand", self._run_demand
        # The one sanctioned observability hook in the engine hot path
        # (DESIGN.md Section 13): a no-op context unless telemetry is
        # enabled, and never anything that can change engine output.
        # repro: allow[RPR002] -- read-only phase timing; off by default
        from repro.obs.profile import engine_phase
        with engine_phase(mode, scheme=self.scheme.name,
                          blocks=len(self.trace)):
            runner()
        return SimulationResult(scheme=self.scheme.name,
                                stats=self._measured)

    def _warmup_index(self) -> int:
        return int(len(self.trace) * self.warmup_fraction)

    # ------------------------------------------------------------------
    # Ideal front-end: perfect L1-I and BTB (Figure 1 upper bound)
    # ------------------------------------------------------------------

    def _run_ideal(self) -> None:
        params = self.params
        stats = self.stats
        issue_width = params.issue_width
        flush = params.flush_penalty
        warmup = self._warmup_index()
        snapshot = None

        hot = self.trace.hot
        pcs, ninstrs, kinds, takens = \
            hot.pc, hot.ninstr, hot.kind, hot.taken
        n = len(pcs)
        predict_update = self._predict_update()
        l1d_traffic = self._l1d_traffic
        l1d_rate = self.l1d_rate

        # Hot counters accumulate in locals; flushed at the warm-up
        # boundary and after the loop.
        cond_branches = 0
        dir_mispredicts = 0
        stall_dir_flush = 0.0
        instructions = 0
        l1d_accum = 0.0

        clock = 0.0
        for i in range(n):
            if i == warmup:
                stats.cycles = clock
                stats.conditional_branches = cond_branches
                stats.dir_mispredicts = dir_mispredicts
                stats.stall_dir_flush = stall_dir_flush
                stats.blocks = i
                stats.instructions = instructions
                snapshot = stats.snapshot()
            ninstr = ninstrs[i]
            if kinds[i] == _KIND_COND:
                pc = pcs[i]
                cond_branches += 1
                taken = takens[i]
                predicted = predict_update(pc, taken)
                if predicted != taken:
                    dir_mispredicts += 1
                    stall_dir_flush += flush
                    clock += flush
            clock += ninstr / issue_width
            l1d_accum += ninstr * l1d_rate / 1000.0
            if l1d_accum >= 1.0:
                self._l1d_accum = l1d_accum
                clock += l1d_traffic(0, clock)
                l1d_accum = self._l1d_accum
            instructions += ninstr
        self._l1d_accum = l1d_accum
        stats.cycles = clock
        stats.conditional_branches = cond_branches
        stats.dir_mispredicts = dir_mispredicts
        stats.stall_dir_flush = stall_dir_flush
        stats.blocks = n
        stats.instructions = instructions
        self._finish(snapshot, warmup, clock)

    # ------------------------------------------------------------------
    # Demand-driven front-end: baseline and Confluence
    # ------------------------------------------------------------------

    def _run_demand(self) -> None:
        params = self.params
        scheme = self.scheme
        ras = self.ras
        stats = self.stats
        issue_width = params.issue_width
        flush = params.flush_penalty
        warmup = self._warmup_index()
        snapshot = None

        hot = self.trace.hot
        pcs, ninstrs, kinds, takens, targets = (
            hot.pc, hot.ninstr, hot.kind, hot.taken, hot.target
        )
        first_lines, last_lines, fallthroughs = (
            hot.first_line, hot.last_line, hot.fallthrough
        )
        n = len(pcs)
        kind_objs = _KIND_OBJS
        predict_update = self._predict_update()
        update = self.predictor.update
        ras_push = ras.push
        ras_pop = ras.pop
        scheme_lookup = scheme.lookup
        demand_fill = scheme.demand_fill
        on_retire = scheme.on_retire
        demand_line = self._demand_line
        fill_target = self._fill_target
        l1d_traffic = self._l1d_traffic
        l1d_rate = self.l1d_rate

        # Hot counters accumulate in plain locals (a closure would turn
        # them into cell variables and slow every increment); they are
        # flushed into ``stats`` at the warm-up boundary and at the end.
        cond_branches = 0
        dir_mispredicts = 0
        target_mispredicts = 0
        btb_misses = 0
        stall_dir_flush = 0.0
        stall_target_flush = 0.0
        stall_btb_flush = 0.0
        instructions = 0
        l1d_accum = 0.0

        clock = 0.0
        for i in range(n):
            if i == warmup:
                stats.cycles = clock
                stats.conditional_branches = cond_branches
                stats.dir_mispredicts = dir_mispredicts
                stats.target_mispredicts = target_mispredicts
                stats.btb_misses = btb_misses
                stats.stall_dir_flush = stall_dir_flush
                stats.stall_target_flush = stall_target_flush
                stats.stall_btb_flush = stall_btb_flush
                stats.blocks = i
                stats.instructions = instructions
                snapshot = stats.snapshot()
            pc = pcs[i]
            ninstr = ninstrs[i]
            kind = kinds[i]
            taken = takens[i]
            target = targets[i]

            # L1-I demand accesses for the block's line(s).
            first_line = first_lines[i]
            last_line = last_lines[i]
            stall = demand_line(first_line, clock)
            if last_line != first_line:
                stall += demand_line(last_line, clock + stall)

            # Control-flow delivery at fetch/execute.
            hit = scheme_lookup(pc, clock)
            flush_cycles = 0.0
            if hit is None:
                btb_misses += 1
                if kind == _KIND_COND:
                    cond_branches += 1
                    update(pc, taken)  # cold train
                if kind in _CALL_KINDS:
                    ras_push(fallthroughs[i], pc)
                elif kind in _RET_KINDS:
                    ras_pop()
                if taken:
                    flush_cycles = flush
                    stall_btb_flush += flush
                demand_fill(pc, ninstr, kind_objs[kind],
                            fill_target(pc, taken, target), clock)
            else:
                if kind == _KIND_COND:
                    cond_branches += 1
                    predicted = predict_update(pc, taken)
                    if predicted != taken:
                        dir_mispredicts += 1
                        stall_dir_flush += flush
                        flush_cycles = flush
                    elif taken and hit.target != target:
                        target_mispredicts += 1
                        stall_target_flush += flush
                        flush_cycles = flush
                        demand_fill(pc, ninstr, kind_objs[kind], target,
                                    clock)
                elif kind in _CALL_KINDS:
                    ras_push(fallthroughs[i], pc)
                    if hit.target != target:
                        target_mispredicts += 1
                        stall_target_flush += flush
                        flush_cycles = flush
                        demand_fill(pc, ninstr, kind_objs[kind], target,
                                    clock)
                elif kind in _RET_KINDS:
                    entry = ras_pop()
                    predicted_target = entry.return_addr if entry else -1
                    if predicted_target != target:
                        target_mispredicts += 1
                        stall_target_flush += flush
                        flush_cycles = flush
                else:  # JUMP
                    if hit.target != target:
                        target_mispredicts += 1
                        stall_target_flush += flush
                        flush_cycles = flush
                        demand_fill(pc, ninstr, kind_objs[kind], target,
                                    clock)

            clock += stall + flush_cycles + ninstr / issue_width
            on_retire(pc, ninstr, kind_objs[kind], taken, target, clock)
            l1d_accum += ninstr * l1d_rate / 1000.0
            if l1d_accum >= 1.0:
                self._l1d_accum = l1d_accum
                clock += l1d_traffic(0, clock)
                l1d_accum = self._l1d_accum
            instructions += ninstr
        self._l1d_accum = l1d_accum
        stats.cycles = clock
        stats.conditional_branches = cond_branches
        stats.dir_mispredicts = dir_mispredicts
        stats.target_mispredicts = target_mispredicts
        stats.btb_misses = btb_misses
        stats.stall_dir_flush = stall_dir_flush
        stats.stall_target_flush = stall_target_flush
        stats.stall_btb_flush = stall_btb_flush
        stats.blocks = n
        stats.instructions = instructions
        self._finish(snapshot, warmup, clock)

    # ------------------------------------------------------------------
    # Run-ahead front-end: FDIP, Boomerang, Shotgun
    # ------------------------------------------------------------------

    def _run_runahead(self) -> None:
        """BPU run-ahead, fetch and resolve, one trace block at a time.

        Per-block control comes from clock-free replayed columns where
        the scheme allows (:func:`repro.core.control.runahead_control`),
        otherwise from calls on the live scheme, TAGE and RAS; the timing
        code — enqueue, prefetch, fetch, resolve — is the same for both.
        """
        params = self.params
        scheme = self.scheme
        ras = self.ras
        stats = self.stats
        issue_width = params.issue_width
        flush = params.flush_penalty
        ftq_size = params.ftq_size
        predecode = params.predecode_latency
        stall_fill = scheme.miss_policy is MissPolicy.STALL_FILL
        warmup = self._warmup_index()
        snapshot = None

        hot = self.trace.hot
        pcs, ninstrs, kinds, takens, targets = (
            hot.pc, hot.ninstr, hot.kind, hot.taken, hot.target
        )
        first_lines, last_lines, fallthroughs = (
            hot.first_line, hot.last_line, hot.fallthrough
        )
        n = len(pcs)
        enqueue_time = [0.0] * n

        # The replays build on this module's trace helpers, so they load
        # here, with the first run-ahead cell, not when repro is imported.
        from repro.core.control import DIVERGE_BTBMISS, DIVERGE_DIR, \
            DIVERGE_TARGET, runahead_control
        columns = runahead_control(self.trace, scheme, params.ras_size) \
            if self.predictor is None else None
        col_miss, col_outcome, dir_wrong = columns or (None, None, None)
        live = col_outcome is None
        if live and dir_wrong is None:
            predict_update = self._predict_update()
            update = self.predictor.update
        kind_objs = _KIND_OBJS
        ras_push = ras.push
        ras_pop = ras.pop
        scheme_lookup = scheme.lookup
        demand_fill = scheme.demand_fill
        reactive_fill_install = scheme.reactive_fill_install
        region_prefetch = _hook(scheme, "region_prefetch")
        on_retire = _hook(scheme, "on_retire")
        arrival = self._on_prefetch_arrival
        l1i_latency = self._l1i_latency
        issue_prefetch = self._issue_prefetch
        demand_line = self._demand_line
        line_ready_for_fill = self._line_ready_for_fill
        fill_target = self._fill_target
        l1d_traffic = self._l1d_traffic
        l1d_rate = self.l1d_rate
        # The L1-I hit path is inlined (``_demand_line``'s, same LRU move
        # and counters) unless the scheme hooks fetched lines.
        l1i = self.l1i
        l1i_sets = l1i._sets
        l1i_mask = l1i._set_mask
        inline_hits = self._on_fetch_line is None
        pf_lines = self.pf_buffer._lines
        inflight = self._inflight

        # Hot counters accumulate in plain locals (a closure would turn
        # them into cell variables and slow every increment); they are
        # flushed into ``stats`` at the warm-up boundary and at the end.
        # The BPU counts every conditional it walks, and fetch retires
        # every instruction, so those two are counted from the trace
        # when flushed.
        dir_mispredicts = 0
        target_mispredicts = 0
        btb_misses = 0
        reactive_fills = 0
        reactive_fill_cycles = 0.0
        stall_dir_flush = 0.0
        stall_target_flush = 0.0
        stall_btb_flush = 0.0
        stall_ftq = 0.0
        l1i_hits = 0
        l1d_accum = 0.0

        clock = 0.0
        t_bpu = 0.0
        j = 0           # next block the BPU processes
        diverged = -1   # trace index whose successor stream is unknown
        diverge_class = 0  # its DIVERGE_* code
        fill_at_resolve = False  # demand-fill the diverged branch
        capacity_blocked = False  # BPU waited on a full FTQ

        for i in range(n):
            if i == warmup:
                stats.l1i_demand_accesses += l1i_hits
                l1i.hits += l1i_hits
                l1i_hits = 0
                stats.cycles = clock
                stats.conditional_branches = kinds[:j].count(_KIND_COND)
                stats.dir_mispredicts = dir_mispredicts
                stats.target_mispredicts = target_mispredicts
                stats.btb_misses = btb_misses
                stats.reactive_fills = reactive_fills
                stats.reactive_fill_cycles = reactive_fill_cycles
                stats.stall_dir_flush = stall_dir_flush
                stats.stall_target_flush = stall_target_flush
                stats.stall_btb_flush = stall_btb_flush
                stats.stall_ftq = stall_ftq
                stats.blocks = i
                stats.instructions = sum(ninstrs[:i])
                snapshot = stats.snapshot()

            # -- BPU run-ahead ----------------------------------------
            bpu_limit = i + ftq_size
            if bpu_limit > n:
                bpu_limit = n
            while j < bpu_limit and diverged < 0:
                if capacity_blocked:
                    # The BPU was stalled on FTQ space; the slot it now
                    # fills frees as fetch consumes block i.
                    capacity_blocked = False
                    if t_bpu < clock:
                        t_bpu = clock
                t_bpu += 1.0
                if live:
                    pc = pcs[j]
                    kind = kinds[j]
                    hit = scheme_lookup(pc, t_bpu)
                    miss = hit is None
                else:
                    miss = col_miss[j]
                speculated = False
                if miss:
                    btb_misses += 1
                    if stall_fill:
                        branch_line = last_lines[j]
                        ready = line_ready_for_fill(branch_line, t_bpu)
                        fill_done = ready + predecode
                        reactive_fills += 1
                        reactive_fill_cycles += fill_done - t_bpu
                        t_bpu = fill_done
                        if live:
                            reactive_fill_install(
                                pc, ninstrs[j], kind_objs[kind],
                                fill_target(pc, takens[j], targets[j]),
                                branch_line, t_bpu,
                            )
                            hit = scheme_lookup(pc, t_bpu)
                            if hit is None:
                                raise SimulationError(
                                    f"reactive fill failed for pc {pc:#x}"
                                )
                    else:
                        # FDIP: speculate straight-line through the miss;
                        # a taken branch is discovered at execute.
                        speculated = True

                # -- where the stream goes: divergence at block j ------
                if not live:
                    outcome = col_outcome[j]
                    if outcome:
                        diverged = j
                        diverge_class = outcome
                        if outcome == DIVERGE_DIR:
                            dir_mispredicts += 1
                        elif outcome == DIVERGE_TARGET:
                            target_mispredicts += 1
                elif speculated:
                    if takens[j]:
                        diverged = j
                        diverge_class = DIVERGE_BTBMISS
                        fill_at_resolve = True
                else:
                    # BTB (or C-BTB/RIB/U-BTB) hit: predict.
                    call_block_pc = 0
                    predicted_target = hit.target
                    taken = takens[j]
                    target = targets[j]
                    if kind == _KIND_COND:
                        if dir_wrong is None:
                            wrong = predict_update(pc, taken) != taken
                        else:
                            wrong = dir_wrong[j]
                        if wrong:
                            dir_mispredicts += 1
                            diverged = j
                            diverge_class = DIVERGE_DIR
                        elif taken and predicted_target != target:
                            target_mispredicts += 1
                            diverged = j
                            diverge_class = DIVERGE_TARGET
                            fill_at_resolve = True
                    elif kind in _CALL_KINDS:
                        ras_push(fallthroughs[j], pc)
                        if predicted_target != target:
                            target_mispredicts += 1
                            diverged = j
                            diverge_class = DIVERGE_TARGET
                            fill_at_resolve = True
                    elif kind in _RET_KINDS:
                        entry = ras_pop()
                        if entry is not None:
                            predicted_target = entry.return_addr
                            call_block_pc = entry.call_block_pc
                        else:
                            predicted_target = -1
                        if predicted_target != target:
                            target_mispredicts += 1
                            diverged = j
                            diverge_class = DIVERGE_TARGET
                    elif predicted_target != target:  # JUMP
                        target_mispredicts += 1
                        diverged = j
                        diverge_class = DIVERGE_TARGET
                        fill_at_resolve = True

                # -- when its bytes arrive: enqueue and prefetch -------
                enqueue_time[j] = t_bpu
                # ``_issue_prefetch`` for the block's first line, its
                # resident and in-flight cases inlined.
                line = first_lines[j]
                if line in l1i_sets[line & l1i_mask] or line in pf_lines:
                    if arrival is not None:
                        arrival(line, t_bpu + l1i_latency)
                elif line not in inflight:
                    issue_prefetch(line, t_bpu)
                last = last_lines[j]
                if last != line:
                    for line in range(line + 1, last + 1):
                        issue_prefetch(line, t_bpu)

                if live:
                    if speculated:
                        # Trained and filled at execute; the RAS stays
                        # consistent even through misses.
                        taken = takens[j]
                        if kind == _KIND_COND:
                            update(pc, taken)
                        if not taken:
                            demand_fill(pc, ninstrs[j], kind_objs[kind],
                                        fill_target(pc, taken, targets[j]),
                                        t_bpu)
                        if kind in _CALL_KINDS:
                            ras_push(fallthroughs[j], pc)
                        elif kind in _RET_KINDS:
                            ras_pop()
                    elif region_prefetch is not None and kind != _KIND_COND:
                        # Spatial-footprint bulk prefetch (Shotgun),
                        # issued from the *predicted* target: a
                        # mispredicted return wastes its region
                        # prefetches, as real hardware would.
                        region_target = predicted_target \
                            if predicted_target > 0 else target
                        for line in region_prefetch(
                                pc, hit, region_target, call_block_pc,
                                t_bpu):
                            issue_prefetch(line, t_bpu)
                j += 1

            if j < n and (j - i) >= ftq_size and diverged < 0:
                capacity_blocked = True

            # -- fetch block i ----------------------------------------
            start = enqueue_time[i]
            if start > clock:
                stall_ftq += start - clock
            else:
                start = clock

            ninstr = ninstrs[i]
            line = first_lines[i]
            cache_set = l1i_sets[line & l1i_mask]
            if inline_hits and line in cache_set:
                del cache_set[line]
                cache_set[line] = None
                l1i_hits += 1
                stall = 0.0
            else:
                stall = demand_line(line, start)
            last = last_lines[i]
            if last != line:
                cache_set = l1i_sets[last & l1i_mask]
                if inline_hits and last in cache_set:
                    del cache_set[last]
                    cache_set[last] = None
                    l1i_hits += 1
                else:
                    stall += demand_line(last, start + stall)

            clock = start + stall + ninstr / issue_width
            if on_retire is not None:
                on_retire(pcs[i], ninstr, kind_objs[kinds[i]], takens[i],
                          targets[i], clock)
            l1d_accum += ninstr * l1d_rate / 1000.0
            if l1d_accum >= 1.0:
                self._l1d_accum = l1d_accum
                clock += l1d_traffic(0, clock)
                l1d_accum = self._l1d_accum

            # -- resolve a divergence discovered at this block ---------
            if diverged == i:
                # The redirect fires at execute; the flush penalty below
                # is the pipeline refill, during which the BPU is already
                # walking the correct path again — so the BPU restarts at
                # the pre-refill clock.
                t_bpu = clock
                clock += flush
                if diverge_class == DIVERGE_DIR:
                    stall_dir_flush += flush
                elif diverge_class == DIVERGE_BTBMISS:
                    stall_btb_flush += flush
                else:
                    stall_target_flush += flush
                if fill_at_resolve:
                    fill_at_resolve = False
                    demand_fill(pcs[i], ninstr, kind_objs[kinds[i]],
                                targets[i], clock)
                diverged = -1

        self._l1d_accum = l1d_accum
        stats.l1i_demand_accesses += l1i_hits
        l1i.hits += l1i_hits
        stats.cycles = clock
        stats.conditional_branches = kinds[:j].count(_KIND_COND)
        stats.dir_mispredicts = dir_mispredicts
        stats.target_mispredicts = target_mispredicts
        stats.btb_misses = btb_misses
        stats.reactive_fills = reactive_fills
        stats.reactive_fill_cycles = reactive_fill_cycles
        stats.stall_dir_flush = stall_dir_flush
        stats.stall_target_flush = stall_target_flush
        stats.stall_btb_flush = stall_btb_flush
        stats.stall_ftq = stall_ftq
        stats.blocks = n
        stats.instructions = sum(ninstrs)
        self._finish(snapshot, warmup, clock)

    # ------------------------------------------------------------------

    def _finish(self, snapshot: Optional[EngineStats], warmup: int,
                clock: float) -> None:
        if warmup == 0 or snapshot is None:
            self._measured = self.stats.snapshot()
        else:
            self._measured = self.stats.delta_from(snapshot)
        if self._measured.instructions <= 0:
            raise SimulationError("measured window contains no instructions")


def simulate(trace: Trace, scheme: Scheme,
             params: Optional[MicroarchParams] = None,
             predictor=None, l1d_misses_per_kinstr: float = 10.0,
             warmup_fraction: float = 0.1) -> SimulationResult:
    """Convenience wrapper: build a :class:`FrontEnd` and run it."""
    engine = FrontEnd(trace, scheme, params=params, predictor=predictor,
                      l1d_misses_per_kinstr=l1d_misses_per_kinstr,
                      warmup_fraction=warmup_fraction)
    return engine.run()
