"""Unit tests for the synthetic server-program generator."""

import gc
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bisect import bisect_right

from repro.cfg import draws as draws_module
from repro.cfg.generator import GeneratorParams, choice_cdf, \
    generate_program
from repro.cfg.model import CondBehavior, Program
from repro.errors import ProgramError
from repro.isa import BranchKind
from repro.workloads.profiles import get_profile
from tests.conftest import TINY_PARAMS
from tests.test_golden_workloads import program_digest


class TestGeneratorParams:
    def test_defaults_valid(self):
        GeneratorParams()

    def test_rejects_too_few_layers(self):
        with pytest.raises(ProgramError):
            GeneratorParams(n_layers=2)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ProgramError):
            GeneratorParams(call_fraction=1.5)

    def test_rejects_kind_fractions_over_one(self):
        with pytest.raises(ProgramError):
            GeneratorParams(call_fraction=0.6, jump_fraction=0.5)

    def test_rejects_weak_hot_bias(self):
        with pytest.raises(ProgramError):
            GeneratorParams(hot_bias=0.3)


class TestGenerateProgram:
    def test_deterministic(self):
        a = generate_program(TINY_PARAMS)
        b = generate_program(TINY_PARAMS)
        assert [f.base_addr for f in a.program.functions] == \
            [f.base_addr for f in b.program.functions]
        assert a.roots == b.roots

    def test_function_count(self, tiny_generated):
        assert tiny_generated.program.nfunctions == TINY_PARAMS.n_functions

    def test_root_count_and_weights(self, tiny_generated):
        assert len(tiny_generated.roots) == TINY_PARAMS.n_roots
        assert tiny_generated.root_weights.sum() == pytest.approx(1.0)
        # Zipf weights are decreasing in rank.
        weights = tiny_generated.root_weights
        assert all(weights[i] >= weights[i + 1]
                   for i in range(len(weights) - 1))

    def test_kernel_functions_marked(self, tiny_generated):
        for fid in tiny_generated.kernel_fids:
            assert tiny_generated.program.functions[fid].is_kernel

    def test_roots_are_not_kernel(self, tiny_generated):
        kernel = set(tiny_generated.kernel_fids)
        assert not kernel.intersection(tiny_generated.roots)

    def test_calls_are_acyclic(self, tiny_generated):
        """Non-kernel calls go strictly deeper; kernel calls go strictly
        to higher fids within the kernel — so the call graph is a DAG."""
        program = tiny_generated.program
        kernel = set(tiny_generated.kernel_fids)
        # Build a depth map from the layered construction: kernel
        # functions call only higher kernel fids.
        for function in program.functions:
            for block in function.blocks:
                if block.kind == BranchKind.CALL and function.is_kernel:
                    for callee in block.callees:
                        assert callee in kernel
                        # acyclicity inside the kernel layer:
                        # (relabeling permutes fids, so compare via the
                        # original ordering is not possible; instead
                        # verify no self-calls and spot-check depth by
                        # walking)
                        assert callee != function.fid

    def test_traps_target_kernel(self, tiny_generated):
        kernel = set(tiny_generated.kernel_fids)
        for function in tiny_generated.program.functions:
            for block in function.blocks:
                if block.kind == BranchKind.TRAP:
                    assert set(block.callees) <= kernel

    def test_no_nested_loops_within_function(self, tiny_generated):
        """Loop back-edges never span another loop branch or a call."""
        for function in tiny_generated.program.functions:
            for idx, block in enumerate(function.blocks):
                if (block.kind == BranchKind.COND
                        and block.behavior == CondBehavior.LOOP):
                    for mid in range(block.taken_succ, idx):
                        inner = function.blocks[mid]
                        assert inner.kind not in (BranchKind.CALL,
                                                  BranchKind.TRAP)
                        assert not (
                            inner.kind == BranchKind.COND
                            and inner.behavior == CondBehavior.LOOP
                        )

    def test_loops_are_backward_conditionals(self, tiny_generated):
        for function in tiny_generated.program.functions:
            for idx, block in enumerate(function.blocks):
                if (block.kind == BranchKind.COND
                        and block.behavior == CondBehavior.LOOP):
                    assert block.taken_succ < idx

    def test_indirect_sites_have_multiple_candidates(self):
        generated = generate_program(GeneratorParams(
            n_functions=200, n_layers=4, n_roots=4,
            indirect_fraction=1.0, indirect_fanout=4, seed=9,
        ))
        fanouts = [
            len(block.callees)
            for function in generated.program.functions
            for block in function.blocks
            if block.kind == BranchKind.CALL
        ]
        assert fanouts and max(fanouts) > 1

    def test_seed_changes_program(self):
        a = generate_program(TINY_PARAMS)
        b = generate_program(GeneratorParams(
            **{**TINY_PARAMS.__dict__, "seed": 43}
        ))
        assert [f.nblocks for f in a.program.functions] != \
            [f.nblocks for f in b.program.functions]

    def test_conditional_biases_in_range(self, tiny_generated):
        for function in tiny_generated.program.functions:
            for block in function.blocks:
                if (block.kind == BranchKind.COND
                        and block.behavior == CondBehavior.BIASED):
                    assert 0.0 < block.behavior_param < 1.0


class TestInlineDraws:
    @pytest.mark.parametrize("mean_block_instrs", [2.5, 5.5, 9.0, 13.0])
    def test_program_does_not_depend_on_buffer_chunk(self,
                                                     mean_block_instrs):
        """The generator reads block kinds and lengths from the draw
        buffer inline; tiny refills put every read next to the buffer's
        end, where an inline Poisson draw is redone by the method.  From
        a mean length of 12 (Poisson mean 10) every length goes to the
        method, which numpy draws with another algorithm."""
        params = GeneratorParams(
            n_functions=70, n_layers=4, n_roots=4, median_blocks=6.0,
            mean_block_instrs=mean_block_instrs, indirect_fraction=0.3,
            seed=19)
        digest = program_digest(generate_program(params))
        for chunk in (1, 2, 3, 16):
            with mock.patch.object(draws_module, "_CHUNK", chunk):
                assert program_digest(generate_program(params)) == digest


class TestChoiceCdf:
    @pytest.mark.parametrize("n", [1, 2, 7, 150])
    @pytest.mark.parametrize("exponent", [0.0, 0.7, 1.6])
    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_draws_match_generator_choice(self, n, exponent, size):
        """Inverting rng.random() through the CDF is rng.choice(p=...)."""
        weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
        weights /= weights.sum()
        cdf = choice_cdf(weights)
        reference = np.random.default_rng(n)
        ours = np.random.default_rng(n)
        for _ in range(300):
            expected = reference.choice(n, size=size, p=weights)
            if size is None:
                assert bisect_right(cdf, ours.random()) == expected
            else:
                assert [bisect_right(cdf, u)
                        for u in ours.random(size).tolist()] \
                    == expected.tolist()
        # Both streams are at the same position afterwards.
        assert reference.random() == ours.random()


class TestProgramColumns:
    def test_pickle_round_trip_keeps_digest(self, medium_generated):
        restored = pickle.loads(pickle.dumps(medium_generated))
        assert program_digest(restored) == program_digest(medium_generated)
        # Only the columns travel: the layout is rebuilt, equal.
        program = restored.program
        assert "image" not in vars(program)
        assert (program.block_pc
                == medium_generated.program.block_pc).all()

    def test_invalid_column_rejected(self, medium_generated):
        """The constructor validates columns, as unpickling does."""
        state = medium_generated.program.__getstate__()
        call = np.flatnonzero(state["kind"] == int(BranchKind.CALL))[0]
        lo, hi = state["callee_start"][call:call + 2]
        state["callees"] = np.delete(state["callees"], np.s_[lo:hi])
        state["callee_start"] = state["callee_start"].copy()
        state["callee_start"][call + 1:] -= hi - lo
        with pytest.raises(ProgramError, match="CALL block needs callees"):
            Program(**state)


class TestGenerationMemory:
    def test_oracle_transient_is_bounded(self):
        """Generating oracle (76.7k blocks) packs its rows into typed
        chunks as it goes and lays its columns out one at a time: its
        Python allocations peak at most 4 MB above what the program
        keeps (a list of every row tuple peaked 15 MB above)."""
        generate_program(get_profile("nutch").gen_params)  # warm imports
        params = get_profile("oracle").gen_params
        gc.collect()
        tracemalloc.start()
        try:
            generated = generate_program(params)
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert generated.program.total_blocks > 70_000
        assert peak - kept <= 4 * 2**20, (peak, kept)
