"""Unit tests for the Shotgun scheme (the paper's contribution)."""

import pytest

from repro.config.schemes import REFERENCE_SIZES, ShotgunSizes
from repro.isa import BLOCK_SHIFT, BranchKind
from repro.prefetch.base import MissPolicy
from repro.prefetch.footprint import FootprintCodec
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.predecoder import Predecoder


@pytest.fixture
def scheme(tiny_generated):
    return ShotgunScheme(
        predecoder=Predecoder(tiny_generated.program.image),
        sizes=REFERENCE_SIZES,
        codec=FootprintCodec("bitvector", bits=8),
    )


class TestRouting:
    """Branches land in the structure their kind belongs in (Fig. 5a)."""

    def test_call_goes_to_ubtb(self, scheme):
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        assert scheme.ubtb.peek(0x1000) is not None
        hit = scheme.lookup(0x1000, 1.0)
        assert hit.source == "ubtb"

    def test_jump_and_trap_go_to_ubtb(self, scheme):
        scheme.demand_fill(0x2000, 4, BranchKind.JUMP, 0x2100, 0.0)
        scheme.demand_fill(0x3000, 4, BranchKind.TRAP, 0xF000, 0.0)
        assert scheme.ubtb.peek(0x2000) is not None
        assert scheme.ubtb.peek(0x3000) is not None

    def test_return_goes_to_rib(self, scheme):
        scheme.demand_fill(0x4000, 3, BranchKind.RET, 0, 0.0)
        assert scheme.rib.peek(0x4000) is not None
        hit = scheme.lookup(0x4000, 1.0)
        assert hit.source == "rib"
        assert hit.target == 0  # returns take their target from the RAS

    def test_conditional_goes_to_cbtb(self, scheme):
        scheme.demand_fill(0x5000, 4, BranchKind.COND, 0x5100, 0.0)
        assert scheme.cbtb.peek(0x5000) is not None
        hit = scheme.lookup(0x5000, 1.0)
        assert hit.source == "cbtb"

    def test_target_update_preserves_footprints(self, scheme):
        """An indirect call's target update must not wipe the recorded
        spatial footprints (they live in the same entry)."""
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        scheme.ubtb.peek(0x1000).call_footprint = 0b101
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0xA000, 1.0)
        entry = scheme.ubtb.peek(0x1000)
        assert entry.target == 0xA000
        assert entry.call_footprint == 0b101


class TestProactiveCBTBFill:
    def test_arrival_inserts_conditionals_with_delay(self, scheme,
                                                     tiny_generated):
        image = tiny_generated.program.image
        line, branches = next(
            (l, b) for l, b in image.items()
            if any(br[2] == BranchKind.COND for br in b)
        )
        cond = next(b[0] for b in branches if b[2] == BranchKind.COND)
        scheme.on_prefetch_arrival(line, ready=100.0)
        # Not visible before arrival + predecode.
        assert scheme.lookup(cond, 50.0) is None
        assert scheme.lookup(
            cond, 100.0 + scheme.predecode_latency
        ) is not None

    def test_arrival_does_not_delay_existing_entry(self, scheme):
        scheme.demand_fill(0x5000, 4, BranchKind.COND, 0x5100, 0.0)
        before = scheme.cbtb.peek(0x5000).valid_from
        scheme.on_prefetch_arrival(0x5000 >> BLOCK_SHIFT, ready=500.0)
        assert scheme.cbtb.peek(0x5000).valid_from == before


class TestRegionPrefetch:
    def _hit(self, scheme, pc, now=1.0):
        return scheme.lookup(pc, now)

    def test_ubtb_hit_decodes_call_footprint(self, scheme):
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        codec = scheme.codec
        scheme.ubtb.peek(0x1000).call_footprint = codec.encode([2, 5])
        hit = self._hit(scheme, 0x1000)
        lines = scheme.region_prefetch(0x1000, hit, 0x9000, 0, 1.0)
        target_line = 0x9000 >> BLOCK_SHIFT
        assert sorted(lines) == [target_line, target_line + 2,
                                 target_line + 5]

    def test_empty_footprint_prefetches_target_only(self, scheme):
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        hit = self._hit(scheme, 0x1000)
        lines = scheme.region_prefetch(0x1000, hit, 0x9000, 0, 1.0)
        assert lines == [0x9000 >> BLOCK_SHIFT]

    def test_rib_hit_uses_call_entry_return_footprint(self, scheme):
        """Section 4.2.3: on a RIB hit, the call's basic-block address
        (from the extended RAS) indexes the U-BTB's Return Footprint."""
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        scheme.ubtb.peek(0x1000).ret_footprint = scheme.codec.encode([1])
        scheme.demand_fill(0x9100, 3, BranchKind.RET, 0, 0.0)
        hit = self._hit(scheme, 0x9100)
        return_target = 0x1010
        lines = scheme.region_prefetch(0x9100, hit, return_target,
                                       call_block_pc=0x1000, now=1.0)
        target_line = return_target >> BLOCK_SHIFT
        assert sorted(lines) == [target_line, target_line + 1]

    def test_rib_hit_without_call_entry_prefetches_nothing(self, scheme):
        scheme.demand_fill(0x9100, 3, BranchKind.RET, 0, 0.0)
        hit = self._hit(scheme, 0x9100)
        assert scheme.region_prefetch(0x9100, hit, 0x1010,
                                      call_block_pc=0xDEAD00, now=1.0) == []


class TestFootprintRecording:
    def test_call_region_recorded_into_call_footprint(self, scheme):
        """Retire a call, walk its region, close at the next uncond."""
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        scheme.on_retire(0x1000, 4, BranchKind.CALL, True, 0x9000, 1.0)
        # Region blocks: target line +0 and +2.
        scheme.on_retire(0x9000, 4, BranchKind.COND, False, 0x9010, 2.0)
        scheme.on_retire(0x9080, 4, BranchKind.COND, False, 0x9090, 3.0)
        # Next unconditional closes the region.
        scheme.on_retire(0x9090, 3, BranchKind.RET, True, 0x1010, 4.0)
        footprint = scheme.ubtb.peek(0x1000).call_footprint
        assert footprint == scheme.codec.encode([2])

    def test_return_region_recorded_into_ret_footprint(self, scheme):
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        scheme.on_retire(0x1000, 4, BranchKind.CALL, True, 0x9000, 1.0)
        scheme.on_retire(0x9000, 3, BranchKind.RET, True, 0x1010, 2.0)
        # Return region: the caller's fall-through blocks.
        scheme.on_retire(0x1010, 4, BranchKind.COND, False, 0x1020, 3.0)
        scheme.on_retire(0x1050, 4, BranchKind.JUMP, True, 0x1080, 4.0)
        ret_footprint = scheme.ubtb.peek(0x1000).ret_footprint
        assert ret_footprint == scheme.codec.encode([1])

    def test_recording_without_ubtb_entry_is_dropped(self, scheme):
        # No U-BTB entry for the call: footprint has nowhere to go.
        scheme.on_retire(0x1000, 4, BranchKind.CALL, True, 0x9000, 1.0)
        scheme.on_retire(0x9000, 4, BranchKind.COND, False, 0x9010, 2.0)
        scheme.on_retire(0x9010, 3, BranchKind.RET, True, 0x1010, 3.0)
        assert scheme.ubtb.peek(0x1000) is None  # nothing crashed


class TestPolicyAndStorage:
    def test_policy(self, scheme):
        assert scheme.miss_policy is MissPolicy.STALL_FILL
        assert scheme.runahead

    def test_storage_matches_reference(self, scheme):
        kb = scheme.storage_bits() / 8 / 1024
        assert kb == pytest.approx(23.77, abs=0.03)

    def test_reactive_fill_routes_by_kind(self, scheme, tiny_generated):
        image = tiny_generated.program.image
        line, branches = next(iter(image.items()))
        scheme.reactive_fill_install(*branches[0], line, 5.0)
        assert scheme.lookup(branches[0][0], 10.0) is not None
