"""Unit tests for the static program model."""

import pytest

from repro.cfg.model import BasicBlock, Function, Program
from repro.errors import ProgramError
from repro.isa import BLOCK_SHIFT, INSTR_BYTES, BranchKind, branch_pc
from repro.workloads.profiles import WORKLOAD_NAMES, build_program


def reference_image(program):
    """Line -> branches, resolved block by block over the record views.

    The per-block reference for ``Program.image``'s vector build.
    """
    image = {}
    functions = program.functions
    for function in functions:
        for bidx, block in enumerate(function.blocks):
            pc = function.block_addr(bidx)
            if block.kind in (BranchKind.COND, BranchKind.JUMP):
                target = function.block_addr(block.taken_succ)
            elif block.kind in (BranchKind.CALL, BranchKind.TRAP):
                target = functions[block.callees[0]].base_addr
            else:
                target = 0
            image.setdefault(branch_pc(pc, block.ninstr) >> BLOCK_SHIFT,
                             []).append((pc, block.ninstr, block.kind,
                                         target))
    return image


def image_items(image):
    """``(line, branches)`` for every line of *image*, in image order."""
    return [(line, list(branches)) for line, branches in image.items()]


def assert_image_matches_reference(program):
    expected = reference_image(program)
    # Same lines in the same order, and equal per-line branches.
    assert image_items(program.image) == list(expected.items())
    expected_targets = {branch[0]: branch[3]
                        for branches in expected.values()
                        for branch in branches}
    # The image's target column, block by block, is each branch's static
    # target (what a BTB fill of a not-taken conditional installs).
    image = program.image
    assert len(image.target) == len(expected_targets)
    for pc, target in zip(image.block_pc.tolist(), image.target.tolist()):
        assert target == expected_targets[pc]


def _leaf(fid, is_kernel=False):
    terminator = BranchKind.TRAP_RET if is_kernel else BranchKind.RET
    return Function(fid=fid, blocks=[
        BasicBlock(ninstr=4, kind=BranchKind.COND, taken_succ=1),
        BasicBlock(ninstr=3, kind=terminator),
    ], is_kernel=is_kernel)


class TestBasicBlock:
    def test_valid_conditional(self):
        block = BasicBlock(ninstr=4, kind=BranchKind.COND, taken_succ=2)
        assert block.taken_succ == 2

    def test_call_requires_callees(self):
        with pytest.raises(ProgramError):
            BasicBlock(ninstr=4, kind=BranchKind.CALL)

    def test_cond_requires_target(self):
        with pytest.raises(ProgramError):
            BasicBlock(ninstr=4, kind=BranchKind.COND)

    def test_size_field_limit(self):
        # The BTB size field is 5 bits: blocks above 31 instructions are
        # not encodable.
        with pytest.raises(ProgramError):
            BasicBlock(ninstr=32, kind=BranchKind.RET)
        with pytest.raises(ProgramError):
            BasicBlock(ninstr=0, kind=BranchKind.RET)


class TestFunction:
    def test_must_end_with_return(self):
        with pytest.raises(ProgramError):
            Function(fid=0, blocks=[
                BasicBlock(ninstr=4, kind=BranchKind.JUMP, taken_succ=0),
            ])

    def test_kernel_must_end_with_trap_return(self):
        with pytest.raises(ProgramError):
            Function(fid=0, is_kernel=True, blocks=[
                BasicBlock(ninstr=3, kind=BranchKind.RET),
            ])

    def test_taken_succ_bounds_checked(self):
        with pytest.raises(ProgramError):
            Function(fid=0, blocks=[
                BasicBlock(ninstr=4, kind=BranchKind.COND, taken_succ=7),
                BasicBlock(ninstr=3, kind=BranchKind.RET),
            ])

    def test_block_addr_requires_layout(self):
        function = _leaf(0)
        with pytest.raises(ProgramError):
            function.block_addr(0)

    def test_size_bytes(self):
        assert _leaf(0).size_bytes == 7 * INSTR_BYTES


class TestProgram:
    def test_layout_is_line_aligned_and_ordered(self):
        program = Program.from_functions([_leaf(0), _leaf(1), _leaf(2)])
        addresses = [f.base_addr for f in program.functions]
        assert addresses == sorted(addresses)
        for address in addresses:
            assert address % (1 << BLOCK_SHIFT) == 0

    def test_block_addresses_are_cumulative(self):
        program = Program.from_functions([_leaf(0)])
        function = program.functions[0]
        assert function.block_addr(1) == \
            function.block_addr(0) + 4 * INSTR_BYTES

    def test_fids_must_be_dense(self):
        with pytest.raises(ProgramError):
            Program.from_functions([_leaf(1)])

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            Program.from_functions([])

    def test_image_covers_every_block(self):
        program = Program.from_functions([_leaf(0), _leaf(1)])
        branches = [b for _, line in image_items(program.image)
                    for b in line]
        assert len(branches) == program.total_blocks

    def test_image_keyed_by_branch_line(self):
        program = Program.from_functions([_leaf(0)])
        for line, branches in image_items(program.image):
            for block_pc, ninstr, _, _ in branches:
                assert branch_pc(block_pc, ninstr) >> BLOCK_SHIFT == line

    def test_static_branch_targets_resolved(self, tiny_generated):
        program = tiny_generated.program
        descriptors = {branch[0]: branch
                       for _, line in image_items(program.image)
                       for branch in line}
        for function in program.functions[:10]:
            for bidx, block in enumerate(function.blocks):
                _, _, kind, target = descriptors[function.block_addr(bidx)]
                assert kind == block.kind
                if block.kind in (BranchKind.COND, BranchKind.JUMP):
                    assert target == function.block_addr(block.taken_succ)
                elif block.kind in (BranchKind.CALL, BranchKind.TRAP):
                    callee = program.functions[block.callees[0]]
                    assert target == callee.base_addr
                else:
                    assert target == 0

    def test_image_matches_reference_walk(self, tiny_generated):
        assert_image_matches_reference(tiny_generated.program)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_image_matches_reference_walk(self, name):
        assert_image_matches_reference(build_program(name).program)

    def test_footprint_bytes_positive(self, tiny_generated):
        assert tiny_generated.program.footprint_bytes > 0

    def test_unconditional_count(self):
        program = Program.from_functions([_leaf(0)])
        assert program.unconditional_count() == 1  # the RET
