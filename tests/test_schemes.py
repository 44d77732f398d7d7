"""Unit tests for the baseline, FDIP and Boomerang schemes."""

import pytest

from repro.config import MicroarchParams, SchemeConfig
from repro.errors import ConfigError
from repro.isa import BranchKind
from repro.prefetch.base import MissPolicy, Scheme
from repro.prefetch.baseline import BaselineScheme, IdealScheme
from repro.prefetch.boomerang import BoomerangScheme
from repro.prefetch.factory import SCHEME_FACTORIES, build_scheme
from repro.prefetch.fdip import FdipScheme
from repro.uarch.predecoder import Predecoder


class TestBaseScheme:
    def test_default_hooks_are_noops(self):
        scheme = Scheme()
        assert scheme.lookup(0x1000, 0.0) is None
        assert scheme.region_prefetch(0, None, 0, 0, 0.0) == []
        assert scheme.on_fetch_line(0, True, 0.0) == []
        assert scheme.storage_bits() == 0


class TestBaselineScheme:
    def test_policy_flags(self):
        scheme = BaselineScheme()
        assert not scheme.runahead
        assert not scheme.ideal
        assert scheme.miss_policy is MissPolicy.FLUSH_AT_EXECUTE

    def test_demand_fill_then_hit(self):
        scheme = BaselineScheme(btb_entries=64)
        assert scheme.lookup(0x1000, 0.0) is None
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 0.0)
        hit = scheme.lookup(0x1000, 1.0)
        assert hit is not None
        assert hit.kind == BranchKind.CALL
        assert hit.target == 0x9000

    def test_storage(self):
        assert BaselineScheme(btb_entries=2048).storage_bits() == 2048 * 93


class TestIdealScheme:
    def test_flags(self):
        scheme = IdealScheme()
        assert scheme.ideal and not scheme.runahead


class TestFdipScheme:
    def test_speculates_through_misses(self):
        assert FdipScheme().miss_policy is \
            MissPolicy.SPECULATE_FALLTHROUGH
        assert FdipScheme().runahead


class TestBoomerangScheme:
    @pytest.fixture
    def scheme(self, tiny_generated):
        return BoomerangScheme(
            predecoder=Predecoder(tiny_generated.program.image),
            btb_entries=256,
        )

    def test_policy(self, scheme):
        assert scheme.miss_policy is MissPolicy.STALL_FILL

    def test_reactive_fill_installs_missing_branch(self, scheme,
                                                   tiny_generated):
        image = tiny_generated.program.image
        line, branches = next(iter(image.items()))
        pc, ninstr, kind, target = branches[0]
        scheme.reactive_fill_install(pc, ninstr, kind, target, line, 0.0)
        hit = scheme.lookup(pc, 1.0)
        assert hit is not None
        assert hit.kind == kind
        assert scheme.reactive_fills == 1

    def test_reactive_fill_stages_neighbours(self, scheme,
                                             tiny_generated):
        """Other branches in the fetched line land in the BTB prefetch
        buffer, and a later lookup promotes them (Section 4.2.3)."""
        image = tiny_generated.program.image
        line, branches = next(
            (l, b) for l, b in image.items() if len(b) >= 2
        )
        scheme.reactive_fill_install(*branches[0], line, 0.0)
        neighbour = branches[1][0]
        assert len(scheme.prefetch_buffer) >= 1
        hit = scheme.lookup(neighbour, 1.0)
        assert hit is not None and hit.source == "btb"
        # It was moved into the BTB: a second lookup also hits.
        assert scheme.lookup(neighbour, 2.0) is not None


class TestFactory:
    def test_all_names_buildable(self, tiny_generated, params):
        for name in SCHEME_FACTORIES:
            scheme = build_scheme(name, params, tiny_generated)
            assert scheme.name == name

    def test_unknown_name_rejected(self, tiny_generated, params):
        with pytest.raises(ConfigError):
            build_scheme("magic", params, tiny_generated)

    def test_config_respected(self, tiny_generated, params):
        config = SchemeConfig(name="boomerang", btb_entries=512)
        scheme = build_scheme("boomerang", params, tiny_generated, config)
        assert scheme.btb.entries == 512
