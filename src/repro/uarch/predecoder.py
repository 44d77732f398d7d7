"""Predecoder: extract branch metadata from fetched cache lines.

Both Boomerang's reactive BTB fill and Shotgun's proactive C-BTB fill rely
on predecoding cache lines as they arrive at the L1-I (paper
Sections 4.1-4.2.3).  In hardware the predecoder scans the line's
instruction bytes; here it consults the program's binary image, which maps
each line index to the static branches whose branch instruction lies in
that line — the same information a hardware scanner would recover.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cfg.model import Branch, ProgramImage
from repro.errors import ProgramError


class Predecoder:
    """Line-indexed view of the program's static branches.

    Each line's branches are built from the image's columns the first
    time any predecoder of the program asks for them, and then shared.
    Branches are ``(block_pc, ninstr, kind, target)`` tuples.
    """

    def __init__(self, image: ProgramImage) -> None:
        if image is None:
            raise ProgramError("predecoder needs a program image")
        self._image = image
        self.lines_decoded = 0

    @property
    def image(self) -> ProgramImage:
        """The binary image this predecoder reads."""
        return self._image

    def branches_in_line(self, line: int) -> Tuple[Branch, ...]:
        """All static branches whose branch instruction is in *line*."""
        self.lines_decoded += 1
        return self._image.branches(line)

    def cond_triples(self, line: int) -> Tuple[Tuple[int, int, int], ...]:
        """Conditional branches in *line* as (block_pc, ninstr, target).

        Shotgun's proactive C-BTB fill hits this on every prefetch;
        counts as one decoded line per call, like the other views.
        """
        self.lines_decoded += 1
        return self._image.cond_triples(line)

    def find_block(self, line: int, block_pc: int) -> Optional[Branch]:
        """The static branch terminating the block at *block_pc*, if its
        branch instruction lies in *line* (Boomerang's reactive fill)."""
        for branch in self.branches_in_line(line):
            if branch[0] == block_pc:
                return branch
        return None
