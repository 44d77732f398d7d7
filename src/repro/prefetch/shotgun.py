"""Shotgun: BTB-directed front-end prefetching over a logical code map.

The paper's contribution (Section 4).  Shotgun splits the conventional
BTB budget into:

* a large **U-BTB** for unconditional branches, each entry carrying two
  spatial footprints (call-target region and return region);
* a slim **RIB** for returns (target comes from the RAS, footprint lives
  with the call);
* a small **C-BTB** for the conditional branches of currently-active
  regions, filled *proactively* by predecoding prefetched lines.

On every U-BTB or RIB hit the engine asks :meth:`region_prefetch` for the
target region's lines (decoded from the spatial footprint) and
bulk-prefetches them; each arriving line is predecoded and its conditional
branches installed in the C-BTB ahead of the BPU.  If all three structures
miss, Shotgun falls back to Boomerang's reactive fill.

Footprints are recorded from the retire stream (Section 4.2.2): a region
opens at each retiring unconditional branch and closes at the next one.
Return-region footprints are stored with the *call* (Section 4.2.1), found
through a retire-side call stack mirroring the extended RAS.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.config.schemes import ShotgunSizes
from repro.isa import BLOCK_SHIFT, INSTR_BYTES, BranchKind, is_return_kind
from repro.prefetch.base import LookupHit, MissPolicy, Scheme
from repro.prefetch.footprint import FootprintCodec, RegionRecorder
from repro.uarch.btb import EMPTY_SET, BTBEntry, BTBPrefetchBuffer
from repro.uarch.predecoder import Predecoder
from repro.uarch.shotgun_btb import CBTB, CBTBEntry, RIB, RIBEntry, UBTB, \
    UBTBEntry

#: Cap on the retire-side call stack (beyond any real nesting depth).
_RETIRE_STACK_LIMIT = 256


class ShotgunScheme(Scheme):
    """The unified U-BTB/C-BTB/RIB prefetcher of the paper."""

    name = "shotgun"
    runahead = True
    miss_policy = MissPolicy.STALL_FILL

    def __init__(self, predecoder: Predecoder,
                 sizes: ShotgunSizes,
                 codec: Optional[FootprintCodec] = None,
                 btb_assoc: int = 4,
                 prefetch_buffer_entries: int = 32,
                 predecode_latency: float = 3.0,
                 use_rib: bool = True,
                 proactive_cbtb: bool = True) -> None:
        """Args beyond the structures:

        use_rib: route returns to the dedicated RIB (the paper's design).
            With False, returns occupy full U-BTB entries — the
            storage-inefficient alternative Section 4.2.1 argues against
            (ablated by ``benchmarks/test_ablation_rib.py``).
        proactive_cbtb: predecode arriving prefetched lines into the
            C-BTB (Section 4.2.3).  With False the C-BTB fills only
            reactively, Boomerang-style.
        """
        self.use_rib = use_rib
        self.proactive_cbtb = proactive_cbtb
        self.codec = codec if codec is not None else FootprintCodec()
        self.ubtb = UBTB(entries=sizes.ubtb_entries, assoc=btb_assoc,
                         footprint_bits=self.codec.storage_bits_per_footprint())
        self.cbtb = CBTB(entries=sizes.cbtb_entries, assoc=btb_assoc)
        self.rib = RIB(entries=sizes.rib_entries, assoc=btb_assoc)
        self.prefetch_buffer = BTBPrefetchBuffer(prefetch_buffer_entries)
        self.predecoder = predecoder
        self.predecode_latency = predecode_latency
        self.recorder = RegionRecorder(self.codec)
        self._retire_call_stack: List[int] = []
        self.reactive_fills = 0
        self.region_prefetches = 0

    # -- lookups -------------------------------------------------------

    def lookup(self, pc: int, now: float) -> Optional[LookupHit]:
        """Probe U-BTB, RIB, C-BTB and the prefetch buffer, in that order.

        Hot path (one call per block the BPU walks): the three
        set-associative probes are inlined — same sets, counters and LRU
        updates as ``SetAssocTable.lookup``/``CBTB.lookup_at``, without
        three method-call round trips per block.
        """
        key = pc >> 2
        ubtb = self.ubtb
        table_set = ubtb._sets[key % ubtb.n_sets]
        ubtb.lookups += 1
        if pc in table_set:
            entry = table_set[pc]
            table_set.move_to_end(pc)
            ubtb.hit_count += 1
            target = 0 if is_return_kind(entry.kind) else entry.target
            return LookupHit(ninstr=entry.ninstr, kind=entry.kind,
                             target=target, source="ubtb")
        rib = self.rib
        table_set = rib._sets[key % rib.n_sets]
        rib.lookups += 1
        if pc in table_set:
            rib_entry = table_set[pc]
            table_set.move_to_end(pc)
            rib.hit_count += 1
            return LookupHit(ninstr=rib_entry.ninstr, kind=rib_entry.kind,
                             target=0, source="rib")
        cbtb = self.cbtb
        table_set = cbtb._sets[key % cbtb.n_sets]
        cbtb.lookups += 1
        if pc in table_set:
            cbtb_entry = table_set[pc]
            table_set.move_to_end(pc)
            cbtb.hit_count += 1
            # An entry still in flight at *now* behaves like a miss and
            # falls through to the prefetch-buffer probe.
            if cbtb_entry.valid_from <= now:
                return LookupHit(ninstr=cbtb_entry.ninstr,
                                 kind=BranchKind.COND,
                                 target=cbtb_entry.target, source="cbtb")
        staged = self.prefetch_buffer.take(pc)
        if staged is not None:
            self._install(pc, staged.ninstr, staged.kind, staged.target, now)
            return LookupHit(ninstr=staged.ninstr, kind=staged.kind,
                             target=staged.target, source="pfb")
        return None

    # -- fills ---------------------------------------------------------

    def _install(self, pc: int, ninstr: int, kind: BranchKind, target: int,
                 now: float, valid_from: Optional[float] = None) -> None:
        """Route a branch to the structure its kind belongs in."""
        if kind == BranchKind.COND:
            self.cbtb.insert(pc, CBTBEntry(
                ninstr=ninstr, target=target,
                valid_from=now if valid_from is None else valid_from,
            ))
        elif is_return_kind(kind):
            if self.use_rib:
                self.rib.insert(pc, RIBEntry(ninstr=ninstr, kind=kind))
            else:
                # No-RIB ablation: returns waste full U-BTB entries.
                self.ubtb.insert(pc, UBTBEntry(ninstr=ninstr, kind=kind,
                                               target=0))
        else:
            existing = self.ubtb.peek(pc)
            if existing is not None:
                # Preserve recorded footprints on a target update.
                existing.ninstr = ninstr
                existing.kind = kind
                existing.target = target
                self.ubtb.insert(pc, existing)
            else:
                self.ubtb.insert(pc, UBTBEntry(ninstr=ninstr, kind=kind,
                                               target=target))

    def demand_fill(self, pc: int, ninstr: int, kind: BranchKind,
                    target: int, now: float) -> None:
        self._install(pc, ninstr, kind, target, now)

    def reactive_fill_install(self, pc: int, ninstr: int, kind: BranchKind,
                              target: int, line: int, now: float) -> None:
        """Boomerang-style fill: missing branch installed, rest staged."""
        self.reactive_fills += 1
        self._install(pc, ninstr, kind, target, now)
        for branch in self.predecoder.branches_in_line(line):
            if branch.block_pc == pc:
                continue
            self.prefetch_buffer.insert(
                branch.block_pc,
                BTBEntry(ninstr=branch.ninstr, kind=branch.kind,
                         target=branch.target),
            )

    def on_prefetch_arrival(self, line: int, ready: float) -> None:
        """Predecode an arriving line into the C-BTB (Section 4.2.3).

        Hot path: every issued prefetch probe lands here.  Uses the
        predecoder's cached per-line (pc, ninstr, target) triples and a
        single inlined set probe per branch — entries already visible at
        *ready* are left alone (their validity must not be pushed back),
        everything else is (re)installed in place, becoming visible
        after the predecode latency.
        """
        if not self.proactive_cbtb:
            return
        branches = self.predecoder.cond_triples(line)
        if not branches:
            return
        valid_from = ready + self.predecode_latency
        cbtb = self.cbtb
        sets = cbtb._sets
        n_sets = cbtb.n_sets
        assoc = cbtb.assoc
        for block_pc, ninstr, target in branches:
            index = (block_pc >> 2) % n_sets
            table_set = sets[index]
            if block_pc in table_set:
                entry = table_set[block_pc]
                if entry.valid_from <= ready:
                    continue
                entry.ninstr = ninstr
                entry.target = target
                entry.valid_from = valid_from
                table_set.move_to_end(block_pc)
                continue
            if table_set is EMPTY_SET:
                # First insert into this set (SetAssocTable.insert's
                # allocation, inlined with the rest of the fill).
                table_set = sets[index] = OrderedDict()
            elif len(table_set) >= assoc:
                table_set.popitem(last=False)
            table_set[block_pc] = CBTBEntry(ninstr=ninstr, target=target,
                                            valid_from=valid_from)

    # -- spatial-footprint prefetching -----------------------------------

    def region_prefetch(self, pc: int, hit: LookupHit, target: int,
                        call_block_pc: int, now: float) -> List[int]:
        """Lines of the target region, decoded from the spatial footprint.

        Routing is by branch *kind*: returns use the associated call's
        Return Footprint (via the extended-RAS call-block pc), every
        other unconditional uses its own Call Footprint — regardless of
        which structure the branch was found in, so the no-RIB ablation
        behaves identically on this path.
        """
        if hit.source not in ("ubtb", "rib"):
            return []
        if is_return_kind(hit.kind):
            entry = self.ubtb.peek(call_block_pc) if call_block_pc else None
            if entry is None:
                return []  # no associated call entry: no footprint to use
            footprint = entry.ret_footprint
        else:
            entry = self.ubtb.peek(pc)
            footprint = entry.call_footprint if entry is not None else 0
        self.region_prefetches += 1
        target_line = target >> BLOCK_SHIFT
        return [target_line + offset
                for offset in self.codec.decode_offsets(footprint)]

    # -- retire-time footprint recording ---------------------------------

    def on_retire(self, pc: int, ninstr: int, kind: BranchKind, taken: bool,
                  target: int, now: float) -> None:
        self.recorder.access_range(
            pc >> BLOCK_SHIFT,
            (pc + (ninstr - 1) * INSTR_BYTES) >> BLOCK_SHIFT,
        )
        if kind == BranchKind.COND:
            return
        if kind in (BranchKind.CALL, BranchKind.TRAP):
            if len(self._retire_call_stack) < _RETIRE_STACK_LIMIT:
                self._retire_call_stack.append(pc)
            self.recorder.open(target >> BLOCK_SHIFT,
                               self._call_footprint_store(pc))
        elif kind == BranchKind.JUMP:
            self.recorder.open(target >> BLOCK_SHIFT,
                               self._call_footprint_store(pc))
        else:  # RET / TRAP_RET
            call_pc = (self._retire_call_stack.pop()
                       if self._retire_call_stack else 0)
            self.recorder.open(target >> BLOCK_SHIFT,
                               self._ret_footprint_store(call_pc))

    def _call_footprint_store(self, pc: int):
        def store(mask: int) -> None:
            entry = self.ubtb.peek(pc)
            if entry is not None:
                entry.call_footprint = mask
        return store

    def _ret_footprint_store(self, call_pc: int):
        def store(mask: int) -> None:
            if call_pc == 0:
                return
            entry = self.ubtb.peek(call_pc)
            if entry is not None:
                entry.ret_footprint = mask
        return store

    # -- accounting -------------------------------------------------------

    def storage_bits(self) -> int:
        return (self.ubtb.storage_bits() + self.cbtb.storage_bits()
                + self.rib.storage_bits())
