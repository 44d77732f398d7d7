"""The fill-target column and the compact walk columns.

* ``Trace.hot.fill_target`` is what a BTB fill installs for each block:
  the trace's target where the branch was taken, else the static taken
  target of the block at that pc in the program image — checked against
  a ``{block_pc: target}`` dict built here (the map programs used to
  keep), for random traces, not-taken conditionals, program-less,
  sliced and saved-then-loaded traces.
* No program object keeps a per-block dict, and the executor's walk
  columns are ``bytes`` and typed arrays, at most 16 bytes a block,
  equal block for block to a per-block Python build of them.
"""

from __future__ import annotations

import os
import sys
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.heap import estimated_bytes
from repro.isa import INSTR_BYTES, BranchKind
from repro.workloads.profiles import build_program
from repro.workloads.trace import Trace
from repro.workloads.tracegen import _walk_columns, generate_trace

KINDS = sorted(int(kind) for kind in BranchKind)
SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def reference_fill_targets(trace: Trace) -> list:
    """Per block: the taken target, else the program's static target of
    the block at that pc, else the trace's own target."""
    static = {} if trace.generated is None else dict(zip(
        trace.generated.program.block_pc.tolist(),
        trace.generated.program.image.target.tolist()))
    return [target if taken else static.get(pc, target)
            for pc, taken, target in zip(trace.pc.tolist(),
                                         trace.taken.tolist(),
                                         trace.target.tolist())]


def assert_fill_targets(trace: Trace) -> None:
    fills = trace.hot.fill_target
    expected = reference_fill_targets(trace)
    assert fills == expected
    assert all(type(value) is int for value in fills)
    # Interned with the other columns: a fill equal to a pc or a target
    # is that very object.
    objects = {value: value for value in trace.hot.pc + trace.hot.target}
    assert all(objects.get(value, value) is value for value in fills)


@st.composite
def program_traces(draw, generated):
    """Random traces over *generated*'s block pcs, a few foreign pcs,
    any kinds and taken flags (many not-taken conditionals)."""
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    block_pc = generated.program.block_pc
    pc = block_pc[rng.integers(0, len(block_pc), n)]
    foreign = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    pc = np.where(foreign, pc + INSTR_BYTES, pc)
    kind = np.where(rng.random(n) < 0.6, int(BranchKind.COND),
                    np.array(KINDS)[rng.integers(0, len(KINDS), n)])
    taken = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    target = rng.integers(0, 2**30, n) * INSTR_BYTES
    return Trace(pc, rng.integers(1, 31, n).astype(np.int16), kind, taken,
                 target, generated)


class TestFillTargetColumn:
    @given(data=st.data())
    @settings(max_examples=60, **SETTINGS)
    def test_random_traces(self, tiny_generated, data):
        assert_fill_targets(data.draw(program_traces(tiny_generated)))

    @given(data=st.data())
    @settings(max_examples=30, **SETTINGS)
    def test_program_less_traces(self, tiny_generated, data):
        trace = data.draw(program_traces(tiny_generated))
        bare = Trace(trace.pc, trace.ninstr, trace.kind, trace.taken,
                     trace.target)
        assert_fill_targets(bare)
        assert bare.hot.fill_target is bare.hot.target

    @given(data=st.data(), bounds=st.tuples(st.integers(0, 299),
                                            st.integers(1, 300)))
    @settings(max_examples=30, **SETTINGS)
    def test_sliced_traces(self, tiny_generated, data, bounds):
        trace = data.draw(program_traces(tiny_generated))
        start = min(bounds[0], len(trace) - 1)
        stop = max(start + 1, min(bounds[1], len(trace)))
        assert_fill_targets(trace.slice(start, stop))

    @given(data=st.data())
    @settings(max_examples=15, **SETTINGS)
    def test_saved_then_loaded_traces(self, tiny_generated, data):
        trace = data.draw(program_traces(tiny_generated))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.npz")
            trace.save(path)
            with_program = Trace.load(path, tiny_generated)
            without = Trace.load(path)
        assert with_program.hot.fill_target == trace.hot.fill_target
        assert_fill_targets(with_program)
        assert without.hot.fill_target == trace.target.tolist()

    def test_generated_not_taken_conditionals(self, medium_trace):
        assert_fill_targets(medium_trace)
        cond = int(BranchKind.COND)
        not_taken = [i for i in range(len(medium_trace))
                     if medium_trace.kind[i] == cond
                     and not medium_trace.taken[i]]
        assert not_taken
        fills = medium_trace.hot.fill_target
        # A not-taken conditional installs its taken successor, not the
        # fall-through it went to (they coincide only for a branch to the
        # next block).
        assert sum(fills[i] != medium_trace.target[i]
                   for i in not_taken) > len(not_taken) // 2


class TestProgramSideState:
    def test_program_keeps_no_per_block_dict(self, medium_generated):
        program = medium_generated.program
        generate_trace(medium_generated, 500, seed=1).hot
        blocks = program.total_blocks
        for name, value in list(vars(program).items()) \
                + list(vars(program.image).items()) \
                + list(program.derived.items()):
            assert not (isinstance(value, dict) and len(value) >= blocks), \
                name
        assert not hasattr(program, "static_targets")

    @pytest.mark.parametrize("workload", ["nutch", "oracle"])
    def test_walk_columns_layout(self, workload):
        program = build_program(workload).program
        op, arg, nxt, entry = _walk_columns(program)
        blocks = program.total_blocks
        assert type(op) is bytes and len(op) == blocks
        assert type(arg) is array and arg.typecode == "d"
        assert type(nxt) is array and nxt.typecode == "i"
        assert type(entry) is array and entry.typecode == "l"
        assert len(arg) == len(nxt) == blocks
        assert len(entry) == len(program.callees)
        # Containers only: the arrays hold no Python object per block.
        deep = sum(sys.getsizeof(value) for value in (op, arg, nxt, entry))
        assert deep / blocks <= 16

    @pytest.mark.parametrize("workload", ["nutch", "oracle"])
    def test_walk_columns_equal_the_per_block_reference(self, workload):
        """Block for block, the columns hold what a per-block Python
        build of them held: ``arg`` a biased conditional's probability,
        a loop's ``max(2, int(param))`` trips, an indirect call's
        candidate count, else 0; ``next`` a taken successor, a direct
        call's entry block or an indirect call's offset."""
        program = build_program(workload).program
        op, arg, nxt, entry = _walk_columns(program)
        starts = program.callee_start.tolist()
        func_start = program.func_start.tolist()
        callees = program.callees.tolist()
        expected_arg, expected_next = [], []
        for block, (kind, behavior, param, succ) in enumerate(zip(
                program.kind.tolist(), program.behavior.tolist(),
                program.behavior_param.tolist(),
                program.taken_succ.tolist())):
            count = starts[block + 1] - starts[block]
            calling = kind in (BranchKind.CALL, BranchKind.TRAP)
            if kind == BranchKind.COND and behavior == 0:
                expected_arg.append(param)
            elif kind == BranchKind.COND and behavior == 1:
                expected_arg.append(max(2, int(param)))
            elif calling and count > 1:
                expected_arg.append(count)
            else:
                expected_arg.append(0.0)
            if calling and count == 1:
                expected_next.append(func_start[callees[starts[block]]])
            elif calling:
                expected_next.append(starts[block])
            else:
                expected_next.append(succ)
        assert arg.tolist() == expected_arg
        assert nxt.tolist() == expected_next
        assert entry.tolist() == [func_start[fid] for fid in callees]

    def test_program_estimated_bytes(self, tiny_generated):
        program = tiny_generated.program
        generate_trace(tiny_generated, 1000, seed=21).hot
        image = program.image

        def by_rule():
            columns = sum(getattr(program, name).nbytes for name in (
                "ninstr", "kind", "taken_succ", "callee_start", "callees",
                "behavior", "behavior_param", "func_start", "is_kernel",
                "func_base", "block_pc"))
            return columns + image.target.nbytes + image.lines.nbytes \
                + image.bounds.nbytes + estimated_bytes(image._branches) \
                + estimated_bytes(image._cond) \
                + estimated_bytes(program.derived)

        assert program.estimated_bytes() == by_rule()
        # Lines cached and entries added later are counted.
        image.cond_triples(int(image.lines[-1]))
        program.derived["example"] = (b"abcd",)
        try:
            assert program.estimated_bytes() == by_rule()
        finally:
            del program.derived["example"]
        op, arg, nxt, entry = _walk_columns(program)
        assert estimated_bytes((op, arg, nxt, entry)) == 32 + len(op) \
            + 8 * len(arg) + 4 * len(nxt) + 8 * len(entry)
