"""Unit tests for trace generation (execution semantics)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfg.generator import GeneratorParams, generate_program
from repro.cfg.model import CondBehavior
from repro.errors import TraceError
from repro.isa import BranchKind, fallthrough_pc
from repro.workloads.profiles import build_program
from repro.workloads.tracegen import TraceGenerator, generate_trace
from tests.test_golden_workloads import pinned_workloads


class TestExecutionSemantics:
    def test_deterministic(self, tiny_generated):
        a = generate_trace(tiny_generated, 2000, seed=3)
        b = generate_trace(tiny_generated, 2000, seed=3)
        assert (a.pc == b.pc).all()
        assert (a.taken == b.taken).all()

    def test_seed_varies_stream(self, tiny_generated):
        a = generate_trace(tiny_generated, 2000, seed=3)
        b = generate_trace(tiny_generated, 2000, seed=4)
        assert not (a.pc == b.pc).all()

    def test_warmup_advances_stream(self, tiny_generated):
        plain = generate_trace(tiny_generated, 1000, seed=3)
        warmed = generate_trace(tiny_generated, 1000, seed=3,
                                warmup_blocks=500)
        assert not (plain.pc == warmed.pc).all()

    def test_incremental_equals_oneshot(self, tiny_generated):
        generator = TraceGenerator(tiny_generated, seed=3)
        first = generator.run(600)
        second = generator.run(400)
        oneshot = generate_trace(tiny_generated, 1000, seed=3)
        assert (oneshot.pc[:600] == first.pc).all()
        assert (oneshot.pc[600:] == second.pc).all()

    def test_rejects_empty_run(self, tiny_generated):
        with pytest.raises(TraceError):
            TraceGenerator(tiny_generated).run(0)
        with pytest.raises(TraceError):
            TraceGenerator(tiny_generated).skip(0)

    @pytest.mark.parametrize("warmup", [1, 700, 5000])
    def test_skip_then_run_equals_one_long_run(self, tiny_generated,
                                               warmup):
        """The warm-up walk builds no trace but leaves the executor
        where run() would have: the window is the long run's tail."""
        whole = TraceGenerator(tiny_generated, seed=3).run(warmup + 800)
        generator = TraceGenerator(tiny_generated, seed=3)
        generator.skip(warmup)
        window = generator.run(800)
        assert _rows(window) == _rows(whole)[warmup:]
        warmed = generate_trace(tiny_generated, 800, seed=3,
                                warmup_blocks=warmup)
        assert _rows(warmed) == _rows(window)

    @pytest.mark.parametrize("weights", [
        [0.5, 0.5],                 # wrong length
        [0.5, 0.5, 0.5, -0.5],      # negative
        [0.3, 0.3, 0.3, 0.3],       # does not sum to 1
        [0.5, 0.5, 0.0, np.nan],    # not a number
    ])
    def test_rejects_bad_root_weights(self, tiny_generated, weights):
        bad = dataclasses.replace(tiny_generated,
                                  root_weights=np.array(weights))
        with pytest.raises(TraceError, match="root_weights"):
            TraceGenerator(bad)

    def test_successor_consistency(self, tiny_trace):
        """Each block's recorded target is the next block's pc."""
        assert (tiny_trace.target[:-1] == tiny_trace.pc[1:]).all()

    def test_unconditionals_always_taken(self, tiny_trace):
        uncond = tiny_trace.kind != int(BranchKind.COND)
        assert tiny_trace.taken[uncond].all()

    def test_not_taken_conditionals_fall_through(self, tiny_trace):
        for i in range(len(tiny_trace)):
            if (tiny_trace.kind[i] == int(BranchKind.COND)
                    and not tiny_trace.taken[i]):
                assert tiny_trace.target[i] == fallthrough_pc(
                    int(tiny_trace.pc[i]), int(tiny_trace.ninstr[i])
                )

    def test_calls_and_returns_balance(self, tiny_trace):
        """Returns never exceed calls plus request-boundary returns."""
        depth = 0
        for k in tiny_trace.kind:
            if k in (int(BranchKind.CALL), int(BranchKind.TRAP)):
                depth += 1
            elif k in (int(BranchKind.RET), int(BranchKind.TRAP_RET)):
                depth = max(0, depth - 1)  # empty-stack ret = new request
        assert depth >= 0

    def test_call_targets_function_entries(self, tiny_generated,
                                           tiny_trace):
        entries = {f.base_addr for f in tiny_generated.program.functions}
        call_mask = np.isin(tiny_trace.kind,
                            [int(BranchKind.CALL), int(BranchKind.TRAP)])
        targets = set(tiny_trace.target[call_mask].tolist())
        assert targets <= entries

    def test_all_pcs_belong_to_program(self, tiny_generated, tiny_trace):
        valid = set()
        for function in tiny_generated.program.functions:
            for bidx in range(function.nblocks):
                valid.add(function.block_addr(bidx))
        assert set(tiny_trace.pc.tolist()) <= valid

    def test_every_kind_appears(self, tiny_trace):
        kinds = set(tiny_trace.kind.tolist())
        for kind in (BranchKind.COND, BranchKind.CALL, BranchKind.RET):
            assert int(kind) in kinds

    def test_loop_branches_terminate(self, tiny_generated):
        """A long run never gets stuck: the pc keeps changing."""
        trace = generate_trace(tiny_generated, 6000, seed=11)
        # No single block dominates the stream (a stuck walk would put
        # one block at ~100%; hot loop heads in a 60-function program can
        # legitimately reach ~25%).
        _, counts = np.unique(trace.pc, return_counts=True)
        assert counts.max() < 0.3 * len(trace)


class ObjectExecutor:
    """The per-block object executor the column executor replaced.

    Walks the program's :class:`Function`/:class:`BasicBlock` record
    views by (fid, block index), one ``rng.choice`` per dispatched root,
    and can be advanced incrementally like :class:`TraceGenerator`.
    The production executor walks global block indices over list
    columns and inverts a cached root CDF; it must produce the same
    columns bit for bit, resumed runs included.
    """

    def __init__(self, generated, seed, functions=None):
        self.generated = generated
        self.functions = functions if functions is not None \
            else generated.program.functions
        self.rng = np.random.default_rng(seed)
        self.counters = {}
        self.stack = []
        self.fid, self.bidx = self.pick_root(), 0

    def pick_root(self):
        index = self.rng.choice(len(self.generated.roots),
                                p=self.generated.root_weights)
        return int(self.generated.roots[index])

    def run(self, n_blocks):
        """The next *n_blocks* rows ``(pc, ninstr, kind, taken, target)``."""
        rng, functions = self.rng, self.functions
        counters, stack = self.counters, self.stack
        fid, bidx = self.fid, self.bidx
        rows = []
        for _ in range(n_blocks):
            function = functions[fid]
            block = function.blocks[bidx]
            pc, taken = function.block_addr(bidx), True
            if block.kind == BranchKind.COND:
                if block.behavior == CondBehavior.BIASED:
                    taken = bool(rng.random() < block.behavior_param)
                else:
                    count = counters.get((fid, bidx), 0)
                    if block.behavior == CondBehavior.LOOP:
                        taken = count + 1 < max(2,
                                                int(block.behavior_param))
                        counters[(fid, bidx)] = count + 1 if taken else 0
                    else:
                        counters[(fid, bidx)] = count ^ 1
                        taken = count == 0
                bidx = block.taken_succ if taken else bidx + 1
                target = function.block_addr(bidx)
            elif block.kind == BranchKind.JUMP:
                bidx = block.taken_succ
                target = function.block_addr(bidx)
            elif block.kind in (BranchKind.CALL, BranchKind.TRAP):
                callees = block.callees
                callee = callees[0] if len(callees) == 1 \
                    else callees[int(rng.integers(0, len(callees)))]
                stack.append((fid, bidx + 1))
                fid, bidx = callee, 0
                target = functions[fid].base_addr
            else:
                fid, bidx = stack.pop() if stack \
                    else (self.pick_root(), 0)
                target = functions[fid].block_addr(bidx)
            rows.append((pc, block.ninstr, int(block.kind), taken, target))
        self.fid, self.bidx = fid, bidx
        return rows


def _reference_trace(generated, n_blocks, seed, warmup_blocks):
    executor = ObjectExecutor(generated, seed)
    executor.run(warmup_blocks)
    return executor.run(n_blocks)


def _rows(trace):
    return list(zip(trace.pc.tolist(), trace.ninstr.tolist(),
                    trace.kind.tolist(), trace.taken.tolist(),
                    trace.target.tolist()))


class TestAgainstReferenceExecutor:
    @pytest.mark.parametrize("seed,warmup", [(1, 0), (3, 200), (11, 1500)])
    def test_tiny_program(self, tiny_generated, seed, warmup):
        trace = generate_trace(tiny_generated, 3000, seed=seed,
                               warmup_blocks=warmup)
        assert _rows(trace) == _reference_trace(tiny_generated, 3000, seed,
                                                warmup)

    def test_indirect_heavy_program(self):
        generated = generate_program(GeneratorParams(
            n_functions=150, n_layers=5, n_roots=6, indirect_fraction=0.6,
            indirect_fanout=4, loop_fraction=0.3, alternate_fraction=0.2,
            trap_fraction=0.05, seed=5,
        ))
        generator = TraceGenerator(generated, seed=9)
        parts = [generator.run(n) for n in (1, 999, 2000)]
        rows = [row for part in parts for row in _rows(part)]
        assert rows == _reference_trace(generated, 3000, 9, 0)
        # Walks that skip, across several buffer refills.
        generator = TraceGenerator(generated, seed=9)
        generator.skip(9000)
        first = _rows(generator.run(700))
        generator.skip(1)
        second = _rows(generator.run(300))
        reference = ObjectExecutor(generated, 9)
        reference.run(9000)
        assert first == reference.run(700)
        reference.run(1)
        assert second == reference.run(300)

    @pytest.mark.parametrize("name", sorted(pinned_workloads()))
    def test_pinned_workload_resumed_runs(self, name):
        """Every pinned workload, over drawn seeds and lengths, across a
        resumed ``run(a)`` then ``run(b)``."""
        generated = build_program(name)
        functions = generated.program.functions  # views, built once

        @settings(max_examples=4, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(seed=st.integers(1, 2**32 - 1), first=st.integers(1, 1500),
               second=st.integers(1, 1500))
        def check(seed, first, second):
            generator = TraceGenerator(generated, seed=seed)
            reference = ObjectExecutor(generated, seed, functions)
            for n_blocks in (first, second):
                assert _rows(generator.run(n_blocks)) \
                    == reference.run(n_blocks)

        check()
