"""Clock-free control replays: where the instruction stream goes.

A decoupled front-end keeps *where the stream goes* (BTBs, the TAGE
direction predictor, the RAS) apart from *when its bytes arrive* (FTQ,
L1-I, NoC).  For several schemes the first half never reads the clock:
its structures are touched only in trace order, so the per-block
outcomes — BTB miss, direction mispredict, target mispredict — are a
pure function of the trace and the structures' geometry.  This module
replays that half once per (trace, geometry), caches the per-block
columns on ``trace.derived`` and shares them with every cell that can
read them (DESIGN.md Sections 4 and 14):

* :func:`ideal_control` — TAGE alone, every conditional predicted in
  trace order.  The ideal front-end's flags, and also the direction
  flags of every stall-fill scheme (Boomerang, Shotgun): a reactive
  fill ends in a hit, so each of their conditionals reaches the
  predictor in trace order too.
* :func:`demand_control` — the baseline's BTB + TAGE + RAS pass.  FDIP
  makes the same calls in the same order (a fill lands at lookup or
  at resolve, before the parked BPU looks up again), so its run-ahead
  columns are this pass's for the same BTB geometry and RAS depth.
* :func:`boomerang_control` — Boomerang's BTB, its BTB prefetch buffer
  and the RAS; direction flags come from :func:`ideal_control`.

Shotgun's C-BTB and Confluence's BTB fill on prefetch *arrival*, a
time, so their BTB side stays on calls.  The replays probe the BTB sets
inline as ``{pc: target}`` dicts with the same LRU order as
:class:`~repro.uarch.btb.SetAssocTable`; the equivalence is pinned by
the differential tests against the calling path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.frontend import _CALL_KINDS, _KIND_COND, _RET_KINDS, \
    _fold_sequences, _static_target_map
from repro.prefetch.base import Scheme
from repro.prefetch.boomerang import BoomerangScheme
from repro.prefetch.fdip import FdipScheme
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.ras import ReturnAddressStack
from repro.uarch.tage import PrecomputedHistoryTage, replay_cond_mispredicts
from repro.workloads.trace import Trace

#: Per-block outcome codes of a run-ahead lookup: where the BPU parks.
#: ``DIVERGE_BTBMISS`` is a taken branch FDIP speculated past.
DIVERGE_DIR = 1
DIVERGE_TARGET = 2
DIVERGE_BTBMISS = 3


def ideal_control(trace: Trace) -> bytes:
    """Direction-mispredict flags of a full-trace TAGE replay, one byte
    per block.

    Exactly the ``predict_update`` calls the ideal loop makes, and the
    ones every stall-fill scheme with the default predictor makes.
    """
    cached = trace.derived.get("control.ideal")
    if cached is None:
        hot = trace.hot
        cached = trace.derived["control.ideal"] = bytes(
            replay_cond_mispredicts(_fold_sequences(trace), hot.pc,
                                    hot.kind, hot.taken, _KIND_COND))
    return cached


def demand_control(trace: Trace, geometry: Tuple[int, int],
                   ras_size: int) -> Tuple[bytes, bytes]:
    """The baseline's control outcomes for a BTB of *geometry*, as
    (BTB miss, ``DIVERGE_*`` code), one byte per block.

    Replays the interpreter's ``_run_demand`` control section against a
    fresh BTB, a fresh trace-derived TAGE and a fresh RAS — legal
    because none of them reads the clock.  One replay per (trace, BTB
    geometry, RAS depth) serves the baseline in both engines and FDIP.
    """
    key = ("control.demand",) + tuple(geometry) + (ras_size,)
    cached = trace.derived.get(key)
    if cached is None:
        cached = trace.derived[key] = _replay_demand(trace, geometry,
                                                     ras_size)
    return cached


def _replay_demand(trace: Trace, geometry: Tuple[int, int],
                   ras_size: int) -> Tuple[bytes, bytes]:
    hot = trace.hot
    pcs, kinds, takens, targets, fallthroughs = (
        hot.pc, hot.kind, hot.taken, hot.target, hot.fallthrough)
    n = len(pcs)
    entries, assoc = geometry
    n_sets = entries // assoc
    sets: List[dict] = [{} for _ in range(n_sets)]
    predictor = PrecomputedHistoryTage(_fold_sequences(trace))
    predict_update = predictor.predict_update
    update = predictor.update
    ras = ReturnAddressStack(ras_size)
    ras_push = ras.push
    ras_pop = ras.pop
    static_get = _static_target_map(trace).get

    miss = bytearray(n)
    outcome = bytearray(n)
    for i in range(n):
        pc = pcs[i]
        kind = kinds[i]
        taken = takens[i]
        target = targets[i]
        btb_set = sets[(pc >> 2) % n_sets]
        # Lookup: a hit moves the entry to the MRU end.
        hit_target = btb_set.pop(pc, None)
        if hit_target is None:
            miss[i] = 1
            if kind == _KIND_COND:
                update(pc, taken)  # cold train
            elif kind in _CALL_KINDS:
                ras_push(fallthroughs[i], pc)
            elif kind in _RET_KINDS:
                ras_pop()
            if taken:
                outcome[i] = DIVERGE_BTBMISS
            else:
                target = static_get(pc, target)
            # Demand fill of a missing branch: evict the LRU way.
            if len(btb_set) >= assoc:
                del btb_set[next(iter(btb_set))]
            btb_set[pc] = target
            continue
        btb_set[pc] = hit_target
        if kind == _KIND_COND:
            if predict_update(pc, taken) != taken:
                outcome[i] = DIVERGE_DIR
                continue
            if not taken or hit_target == target:
                continue
        elif kind in _CALL_KINDS:
            ras_push(fallthroughs[i], pc)
            if hit_target == target:
                continue
        elif kind in _RET_KINDS:
            entry = ras_pop()
            if (entry.return_addr if entry else -1) != target:
                outcome[i] = DIVERGE_TARGET
            continue
        elif hit_target == target:  # JUMP
            continue
        # Target mispredict: the demand fill re-targets the MRU entry.
        outcome[i] = DIVERGE_TARGET
        btb_set[pc] = target
    return bytes(miss), bytes(outcome)


def boomerang_control(trace: Trace, geometry: Tuple[int, int],
                      buffer_entries: int,
                      ras_size: int) -> Tuple[bytes, bytes]:
    """Boomerang's run-ahead columns as (reactive fill needed,
    ``DIVERGE_*`` code), one byte per block.

    Boomerang touches its BTB, its BTB prefetch buffer and the RAS only
    in trace order and never reads time: a lookup (BTB, then a buffer
    promotion), a reactive install on a miss, and a target fix-up at
    resolve, before the parked BPU looks up again.  Direction outcomes
    are :func:`ideal_control`'s.  The reactive fill's *timing* — the
    line fetch it waits on — stays in the engine.
    """
    key = ("control.boomerang",) + tuple(geometry) \
        + (buffer_entries, ras_size)
    cached = trace.derived.get(key)
    if cached is None:
        cached = trace.derived[key] = _replay_boomerang(
            trace, ideal_control(trace), geometry, buffer_entries,
            ras_size)
    return cached


def _replay_boomerang(trace: Trace, dir_wrong: bytes,
                      geometry: Tuple[int, int], buffer_entries: int,
                      ras_size: int) -> Tuple[bytes, bytes]:
    hot = trace.hot
    pcs, kinds, takens, targets, fallthroughs, last_lines = (
        hot.pc, hot.kind, hot.taken, hot.target, hot.fallthrough,
        hot.last_line)
    n = len(pcs)
    entries, assoc = geometry
    n_sets = entries // assoc
    sets: List[dict] = [{} for _ in range(n_sets)]
    staged: dict = {}   # the BTB prefetch buffer, oldest first
    branches_in_line = trace.generated.program.image.branches
    ras = ReturnAddressStack(ras_size)
    ras_push = ras.push
    ras_pop = ras.pop
    static_get = _static_target_map(trace).get

    miss = bytearray(n)
    outcome = bytearray(n)
    for i in range(n):
        pc = pcs[i]
        kind = kinds[i]
        taken = takens[i]
        target = targets[i]
        btb_set = sets[(pc >> 2) % n_sets]
        hit_target = btb_set.pop(pc, None)
        if hit_target is None:
            # A buffer hit promotes the branch into the BTB.
            hit_target = staged.pop(pc, None)
            if hit_target is not None and len(btb_set) >= assoc:
                del btb_set[next(iter(btb_set))]
        if hit_target is None:
            # Reactive fill: install the branch, stage its line's others.
            miss[i] = 1
            hit_target = target if taken else static_get(pc, target)
            if len(btb_set) >= assoc:
                del btb_set[next(iter(btb_set))]
            for block_pc, _, _, block_target \
                    in branches_in_line(last_lines[i]):
                if block_pc == pc:
                    continue
                if block_pc in staged:
                    del staged[block_pc]
                elif len(staged) >= buffer_entries:
                    del staged[next(iter(staged))]
                staged[block_pc] = block_target
        btb_set[pc] = hit_target
        if kind == _KIND_COND:
            if dir_wrong[i]:
                outcome[i] = DIVERGE_DIR
                continue
            if not taken or hit_target == target:
                continue
        elif kind in _CALL_KINDS:
            ras_push(fallthroughs[i], pc)
            if hit_target == target:
                continue
        elif kind in _RET_KINDS:
            entry = ras_pop()
            if (entry.return_addr if entry else -1) != target:
                outcome[i] = DIVERGE_TARGET
            continue
        elif hit_target == target:  # JUMP
            continue
        outcome[i] = DIVERGE_TARGET
        btb_set[pc] = target
    return bytes(miss), bytes(outcome)


def runahead_control(trace: Trace, scheme: Scheme, ras_size: int) \
        -> Optional[Tuple[Optional[bytes], Optional[bytes], Optional[bytes]]]:
    """The control columns *scheme* reads on *trace* instead of calls, as
    ``(miss, outcome, dir_wrong)`` with one byte per block, or None to
    run on calls.

    ``miss`` and ``outcome`` (a ``DIVERGE_*`` code) replace every BTB,
    TAGE and RAS call (FDIP, Boomerang); the cell's scheme object is then
    never touched.  When they are None the scheme's BTBs and the RAS stay
    live and only the direction flags ``dir_wrong`` are read (Shotgun).
    Only exact scheme types with the default predictor qualify (the
    caller checks the predictor), the same rule as
    ``engine_columnar.supports``: a subclass may override hooks whose
    order the replays assume.
    """
    scheme_type = type(scheme)
    if scheme_type is FdipScheme:
        miss, outcome = demand_control(trace, scheme.btb.geometry,
                                       ras_size)
        return miss, outcome, None
    if scheme_type is BoomerangScheme and trace.generated is not None \
            and scheme.predecoder.image is trace.generated.program.image:
        miss, outcome = boomerang_control(
            trace, scheme.btb.geometry, scheme.prefetch_buffer.entries,
            ras_size)
        return miss, outcome, None
    if scheme_type is ShotgunScheme:
        return None, None, ideal_control(trace)
    return None
