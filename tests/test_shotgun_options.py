"""Tests for Shotgun's ablation options (use_rib, proactive_cbtb)."""

import pytest

from repro.config.schemes import REFERENCE_SIZES
from repro.isa import BLOCK_SHIFT, BranchKind
from repro.prefetch.footprint import FootprintCodec
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.predecoder import Predecoder


def _scheme(tiny_generated, **kwargs):
    return ShotgunScheme(
        predecoder=Predecoder(tiny_generated.program.image),
        sizes=REFERENCE_SIZES,
        codec=FootprintCodec("bitvector", bits=8),
        **kwargs,
    )


class TestNoRibVariant:
    def test_returns_routed_to_ubtb(self, tiny_generated):
        scheme = _scheme(tiny_generated, use_rib=False)
        scheme.demand_fill(0x4000, 3, BranchKind.RET, 0, 0.0)
        assert scheme.rib.peek(0x4000) is None
        entry = scheme.ubtb.peek(0x4000)
        assert entry is not None
        assert entry.kind == BranchKind.RET

    def test_return_hit_has_no_target(self, tiny_generated):
        """Even from the U-BTB, a return's target comes from the RAS."""
        scheme = _scheme(tiny_generated, use_rib=False)
        scheme.demand_fill(0x4000, 3, BranchKind.RET, 0, 0.0)
        hit = scheme.lookup(0x4000, 1.0)
        assert hit.source == "ubtb"
        assert hit.target == 0

    def test_return_region_prefetch_still_uses_call_entry(self,
                                                          tiny_generated):
        scheme = _scheme(tiny_generated, use_rib=False)
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        scheme.ubtb.peek(0x1000).ret_footprint = scheme.codec.encode([1])
        scheme.demand_fill(0x9100, 3, BranchKind.RET, 0, 0.0)
        hit = scheme.lookup(0x9100, 1.0)
        lines = scheme.region_prefetch(0x9100, hit, 0x1010,
                                       call_block_pc=0x1000, now=1.0)
        target_line = 0x1010 >> BLOCK_SHIFT
        assert sorted(lines) == [target_line, target_line + 1]

    def test_with_rib_returns_do_not_pollute_ubtb(self, tiny_generated):
        scheme = _scheme(tiny_generated, use_rib=True)
        scheme.demand_fill(0x4000, 3, BranchKind.RET, 0, 0.0)
        assert scheme.ubtb.peek(0x4000) is None


class TestReactiveOnlyCBTB:
    def test_arrivals_ignored(self, tiny_generated):
        scheme = _scheme(tiny_generated, proactive_cbtb=False)
        image = tiny_generated.program.image
        line, branches = next(
            (l, b) for l, b in image.items()
            if any(br[2] == BranchKind.COND for br in b)
        )
        cond = next(b[0] for b in branches if b[2] == BranchKind.COND)
        scheme.on_prefetch_arrival(line, ready=10.0)
        assert scheme.lookup(cond, 100.0) is None

    def test_reactive_fill_still_works(self, tiny_generated):
        scheme = _scheme(tiny_generated, proactive_cbtb=False)
        scheme.demand_fill(0x5000, 4, BranchKind.COND, 0x5100, 0.0)
        assert scheme.lookup(0x5000, 1.0) is not None
