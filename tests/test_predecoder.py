"""Unit tests for the predecoder."""

import pytest

from repro.errors import ProgramError
from repro.isa import BLOCK_SHIFT, BranchKind, branch_pc
from repro.uarch.predecoder import Predecoder


class TestPredecoder:
    def test_rejects_missing_image(self):
        with pytest.raises(ProgramError):
            Predecoder(None)

    def test_branches_in_line(self, tiny_generated):
        predecoder = Predecoder(tiny_generated.program.image)
        line, branches = next(iter(tiny_generated.program.image.items()))
        assert predecoder.branches_in_line(line) == branches

    def test_unknown_line_is_empty(self, tiny_generated):
        predecoder = Predecoder(tiny_generated.program.image)
        assert list(predecoder.branches_in_line(10 ** 9)) == []

    def test_conditional_filter(self, tiny_generated):
        predecoder = Predecoder(tiny_generated.program.image)
        for line in list(tiny_generated.program.image)[:50]:
            assert predecoder.cond_triples(line) == tuple(
                (pc, ninstr, target) for pc, ninstr, kind, target
                in predecoder.branches_in_line(line)
                if kind == BranchKind.COND)

    def test_find_block(self, tiny_generated):
        image = tiny_generated.program.image
        predecoder = Predecoder(image)
        line, branches = next(iter(image.items()))
        target = branches[0]
        found = predecoder.find_block(line, target[0])
        assert found is target
        assert predecoder.find_block(line, 0xDEAD00) is None

    def test_every_image_branch_findable(self, tiny_generated):
        predecoder = Predecoder(tiny_generated.program.image)
        for line, branches in tiny_generated.program.image.items():
            for block_pc, ninstr, _, _ in branches:
                assert branch_pc(block_pc, ninstr) >> BLOCK_SHIFT == line
                assert predecoder.find_block(line, block_pc)
