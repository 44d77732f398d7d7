"""Boomerang: metadata-free unified L1-I/BTB prefetching (Kumar et al. [13]).

Boomerang extends FDIP with a *reactive BTB fill*: when the run-ahead BPU
detects a BTB miss (the basic-block-oriented BTB makes misses detectable),
it stalls prefetching, fetches the cache line containing the missing
branch from the hierarchy, predecodes it, installs the missing branch in
the BTB and stages the line's other branches in a 32-entry BTB prefetch
buffer.  The stall is Boomerang's Achilles heel on large-footprint
workloads (Section 2.2): a cascade of BTB misses serialises on round trips
to the LLC, starving the instruction prefetcher — exactly the behaviour
the engine reproduces.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import BranchKind
from repro.prefetch.base import LookupHit, MissPolicy, Scheme
from repro.uarch.btb import BTBEntry, BTBPrefetchBuffer, ConventionalBTB
from repro.uarch.predecoder import Predecoder


class BoomerangScheme(Scheme):
    """FDIP + reactive BTB fill via line predecode."""

    name = "boomerang"
    runahead = True
    miss_policy = MissPolicy.STALL_FILL

    def __init__(self, predecoder: Predecoder, btb_entries: int = 2048,
                 btb_assoc: int = 4,
                 prefetch_buffer_entries: int = 32) -> None:
        self.btb = ConventionalBTB(entries=btb_entries, assoc=btb_assoc)
        self.prefetch_buffer = BTBPrefetchBuffer(prefetch_buffer_entries)
        self.predecoder = predecoder
        self.reactive_fills = 0

    def lookup(self, pc: int, now: float) -> Optional[LookupHit]:
        entry = self.btb.lookup(pc)
        if entry is None:
            # A BTB prefetch buffer hit promotes the branch into the BTB.
            staged = self.prefetch_buffer.take(pc)
            if staged is not None:
                self.btb.insert(pc, staged)
                entry = staged
        if entry is None:
            return None
        return LookupHit(ninstr=entry.ninstr, kind=entry.kind,
                         target=entry.target, source="btb")

    def demand_fill(self, pc: int, ninstr: int, kind: BranchKind,
                    target: int, now: float) -> None:
        self.btb.insert_branch(pc, ninstr, kind, target)

    def reactive_fill_install(self, pc: int, ninstr: int, kind: BranchKind,
                              target: int, line: int, now: float) -> None:
        """Install the missing branch; stage the line's other branches."""
        self.reactive_fills += 1
        self.btb.insert_branch(pc, ninstr, kind, target)
        for block_pc, block_ninstr, block_kind, block_target \
                in self.predecoder.branches_in_line(line):
            if block_pc == pc:
                continue
            self.prefetch_buffer.insert(
                block_pc,
                BTBEntry(ninstr=block_ninstr, kind=block_kind,
                         target=block_target),
            )

    def storage_bits(self) -> int:
        return self.btb.storage_bits()
