"""Engine-level behaviour tests for the decoupled front-end."""

import pytest

from repro.config import MicroarchParams
from repro.core.frontend import FrontEnd, simulate
from repro.core.metrics import frontend_stall_coverage, speedup
from repro.errors import SimulationError
from repro.prefetch.factory import build_scheme
from repro.isa import BranchKind
from repro.uarch.tage import BimodalPredictor
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace


def _run(trace, generated, scheme_name, params, **kwargs):
    scheme = build_scheme(scheme_name, params, generated)
    return simulate(trace, scheme, params=params, **kwargs)


class TestEngineBasics:
    def test_single_use(self, medium_trace, medium_generated, params):
        scheme = build_scheme("baseline", params, medium_generated)
        engine = FrontEnd(medium_trace, scheme, params=params)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_invalid_warmup_rejected(self, medium_trace,
                                     medium_generated, params):
        scheme = build_scheme("baseline", params, medium_generated)
        with pytest.raises(SimulationError):
            FrontEnd(medium_trace, scheme, params=params,
                     warmup_fraction=1.5)

    def test_deterministic(self, medium_trace, medium_generated, params):
        a = _run(medium_trace, medium_generated, "shotgun", params)
        b = _run(medium_trace, medium_generated, "shotgun", params)
        assert a.cycles == b.cycles
        assert a.stats.prefetch_issued == b.stats.prefetch_issued

    def test_instruction_count_invariant(self, medium_trace,
                                         medium_generated, params):
        """Every scheme retires the same measured instructions."""
        results = [
            _run(medium_trace, medium_generated, name, params)
            for name in ("baseline", "ideal", "fdip", "boomerang",
                         "confluence", "shotgun")
        ]
        counts = {r.instructions for r in results}
        assert len(counts) == 1

    def test_warmup_excludes_leading_blocks(self, medium_trace,
                                            medium_generated, params):
        full = _run(medium_trace, medium_generated, "baseline", params,
                    warmup_fraction=0.0)
        warmed = _run(medium_trace, medium_generated, "baseline", params,
                      warmup_fraction=0.5)
        assert warmed.instructions < full.instructions
        assert warmed.cycles < full.cycles


class TestFillTargets:
    """What a BTB fill installs comes from the trace's fill column."""

    def test_each_trace_fills_from_the_image(self, medium_generated):
        first = generate_trace(medium_generated, 500, seed=1)
        second = generate_trace(medium_generated, 500, seed=2)
        program = medium_generated.program
        assert not hasattr(program, "static_targets")
        static = dict(zip(program.block_pc.tolist(),
                          program.image.target.tolist()))
        for trace in (first, second):
            fills = trace.hot.fill_target
            for i, (pc, taken, target) in enumerate(zip(
                    trace.pc.tolist(), trace.taken.tolist(),
                    trace.target.tolist())):
                assert fills[i] == (target if taken else static[pc])
            assert not trace.derived

    def test_not_taken_conditionals_fill_their_taken_successor(
            self, medium_generated, medium_trace):
        program = medium_generated.program
        taken_succ = {}
        for function in program.functions:
            for bidx, block in enumerate(function.blocks):
                if block.kind in (BranchKind.COND, BranchKind.JUMP):
                    taken_succ[function.block_addr(bidx)] = \
                        function.block_addr(block.taken_succ)
        checked = 0
        fills = medium_trace.hot.fill_target
        for i, pc in enumerate(medium_trace.pc.tolist()):
            if medium_trace.kind[i] == BranchKind.COND \
                    and not medium_trace.taken[i]:
                assert fills[i] == taken_succ[pc]
                checked += 1
        assert checked

    def test_program_less_trace_fills_its_own_targets(self, medium_trace):
        bare = Trace(medium_trace.pc, medium_trace.ninstr,
                     medium_trace.kind, medium_trace.taken,
                     medium_trace.target)
        assert bare.hot.fill_target == medium_trace.target.tolist()


class TestSchemeOrdering:
    """Robust performance relationships on a mid-sized workload."""

    def test_ideal_is_fastest(self, medium_trace, medium_generated,
                              params):
        base = _run(medium_trace, medium_generated, "baseline", params)
        ideal = _run(medium_trace, medium_generated, "ideal", params)
        for name in ("fdip", "boomerang", "confluence", "shotgun"):
            other = _run(medium_trace, medium_generated, name, params)
            assert ideal.cycles <= other.cycles
        assert ideal.cycles < base.cycles

    def test_ideal_has_no_frontend_stalls(self, medium_trace,
                                          medium_generated, params):
        ideal = _run(medium_trace, medium_generated, "ideal", params)
        assert ideal.frontend_stall_cycles == 0.0
        assert ideal.stats.stall_dir_flush > 0.0  # mispredicts remain

    def test_prefetchers_beat_baseline(self, medium_trace,
                                       medium_generated, params):
        base = _run(medium_trace, medium_generated, "baseline", params)
        for name in ("boomerang", "shotgun"):
            other = _run(medium_trace, medium_generated, name, params)
            assert speedup(base, other) > 1.0

    def test_prefetchers_cover_stalls(self, medium_trace,
                                      medium_generated, params):
        base = _run(medium_trace, medium_generated, "baseline", params)
        shotgun = _run(medium_trace, medium_generated, "shotgun", params)
        assert frontend_stall_coverage(base, shotgun) > 0.2

    def test_baseline_never_prefetches(self, medium_trace,
                                       medium_generated, params):
        base = _run(medium_trace, medium_generated, "baseline", params)
        assert base.stats.prefetch_issued == 0

    def test_runahead_schemes_prefetch(self, medium_trace,
                                       medium_generated, params):
        for name in ("fdip", "boomerang", "shotgun"):
            result = _run(medium_trace, medium_generated, name, params)
            assert result.stats.prefetch_issued > 0

    def test_boomerang_eliminates_btb_miss_flushes(self, medium_trace,
                                                   medium_generated,
                                                   params):
        """STALL_FILL resolves BTB misses without pipeline flushes."""
        boom = _run(medium_trace, medium_generated, "boomerang", params)
        assert boom.stats.stall_btb_flush == 0.0
        assert boom.stats.reactive_fills > 0

    def test_fdip_flushes_on_taken_btb_misses(self, medium_trace,
                                              medium_generated, params):
        fdip = _run(medium_trace, medium_generated, "fdip", params)
        assert fdip.stats.stall_btb_flush > 0.0


class TestEngineKnobs:
    def test_custom_predictor(self, medium_trace, medium_generated,
                              params):
        scheme = build_scheme("baseline", params, medium_generated)
        result = simulate(medium_trace, scheme, params=params,
                          predictor=BimodalPredictor())
        assert result.cycles > 0

    def test_l1d_rate_drives_traffic(self, medium_trace,
                                     medium_generated, params):
        quiet = _run(medium_trace, medium_generated, "baseline", params,
                     l1d_misses_per_kinstr=1.0)
        busy = _run(medium_trace, medium_generated, "baseline", params,
                    l1d_misses_per_kinstr=30.0)
        assert busy.stats.l1d_misses > quiet.stats.l1d_misses
        assert busy.cycles > quiet.cycles

    def test_cold_llc_slows_fills(self, medium_trace, medium_generated,
                                  params):
        scheme_a = build_scheme("baseline", params, medium_generated)
        warm = FrontEnd(medium_trace, scheme_a, params=params,
                        warm_llc=True).run()
        scheme_b = build_scheme("baseline", params, medium_generated)
        cold = FrontEnd(medium_trace, scheme_b, params=params,
                        warm_llc=False).run()
        assert cold.cycles >= warm.cycles

    def test_smaller_ftq_hurts_runahead(self, medium_trace,
                                        medium_generated, params):
        small = params.with_overrides(ftq_size=2)
        wide = _run(medium_trace, medium_generated, "shotgun", params)
        narrow = _run(medium_trace, medium_generated, "shotgun", small)
        assert narrow.cycles >= wide.cycles
