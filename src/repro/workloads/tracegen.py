"""Execution of a generated program into a retire-order trace.

The trace generator is the package's stand-in for the paper's Flexus
full-system runs: it walks the layered call graph request by request,
resolving conditional outcomes from each branch's behaviour model,
call/trap targets from the static call graph (indirect sites draw among
their candidates), and returns from an explicit software call stack.

Determinism: a given (program, seed, length) triple always produces the
same trace.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from repro.cfg.generator import GeneratedProgram, choice_cdf
from repro.cfg.model import CondBehavior
from repro.errors import TraceError
from repro.isa import BranchKind
from repro.workloads.trace import Trace

# Plain-int views of the enum members the executor's loop compares.
_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_TRAP = int(BranchKind.TRAP)
_BIASED = int(CondBehavior.BIASED)
_LOOP = int(CondBehavior.LOOP)

#: ``Generator.choice``'s tolerance on the sum of its probabilities.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


class TraceGenerator:
    """Stateful executor of a :class:`GeneratedProgram`.

    The generator can be advanced incrementally (``run(n)``), which the
    experiment layer uses to produce warm-up prefixes and measurement
    windows from a single deterministic stream.
    """

    def __init__(self, generated: GeneratedProgram, seed: int = 1) -> None:
        self.generated = generated
        self.program = generated.program
        self._rng = np.random.default_rng(seed)
        # (fid, block-index) resume points for returns.
        self._stack: List[Tuple[int, int]] = []
        # Loop/alternate per-branch counters, keyed by (fid, block index).
        self._counters: Dict[Tuple[int, int], int] = {}
        roots = generated.roots
        weights = np.asarray(generated.root_weights, dtype=np.float64)
        if (weights.shape != (len(roots),) or not (weights >= 0).all()
                or not abs(weights.sum() - 1.0) <= _P_ATOL):
            raise TraceError(
                f"root_weights must be {len(roots)} non-negative "
                f"probabilities summing to 1"
            )
        self._root_cdf = choice_cdf(weights)
        self._fid = self._pick_root()
        self._bidx = 0

    def _pick_root(self) -> int:
        # The draw of rng.choice(len(roots), p=root_weights).
        index = bisect_right(self._root_cdf, self._rng.random())
        return int(self.generated.roots[index])

    def run(self, n_blocks: int) -> Trace:
        """Execute *n_blocks* dynamic basic blocks and return the trace."""
        if n_blocks < 1:
            raise TraceError(f"n_blocks must be >= 1, got {n_blocks}")
        pcs = [0] * n_blocks
        ninstrs = [0] * n_blocks
        kinds = [0] * n_blocks
        # Only conditionals can fall through; they overwrite their entry.
        takens = [True] * n_blocks
        targets = [0] * n_blocks

        random = self._rng.random
        integers = self._rng.integers
        stack = self._stack
        counters = self._counters
        functions = self.program.functions
        fid = self._fid
        bidx = self._bidx
        # The current function's blocks and block addresses; refreshed
        # only when control enters another function.
        function = functions[fid]
        blocks = function.blocks
        addrs = function.block_addrs
        for i in range(n_blocks):
            block = blocks[bidx]
            kind = int(block.kind)
            pcs[i] = addrs[bidx]
            ninstrs[i] = block.ninstr
            kinds[i] = kind

            if kind == _COND:
                behavior = block.behavior
                if behavior == _BIASED:
                    taken = random() < block.behavior_param
                else:
                    key = (fid, bidx)
                    count = counters.get(key, 0)
                    if behavior == _LOOP:
                        if count + 1 < max(2, int(block.behavior_param)):
                            counters[key] = count + 1
                            taken = True
                        else:
                            counters[key] = 0
                            taken = False
                    else:  # ALTERNATE
                        counters[key] = count ^ 1
                        taken = count == 0
                bidx = block.taken_succ if taken else bidx + 1
                takens[i] = taken
                targets[i] = addrs[bidx]
            elif kind == _JUMP:
                bidx = block.taken_succ
                targets[i] = addrs[bidx]
            elif kind == _CALL or kind == _TRAP:
                callees = block.callees
                if len(callees) == 1:
                    callee = callees[0]
                else:
                    callee = callees[int(integers(0, len(callees)))]
                stack.append((fid, bidx + 1))
                fid = callee
                bidx = 0
                function = functions[fid]
                blocks = function.blocks
                addrs = function.block_addrs
                targets[i] = function.base_addr
            else:  # RET or TRAP_RET
                if stack:
                    fid, bidx = stack.pop()
                else:
                    # Request complete: dispatch the next request type.
                    fid = self._pick_root()
                    bidx = 0
                function = functions[fid]
                blocks = function.blocks
                addrs = function.block_addrs
                targets[i] = addrs[bidx]
        self._fid = fid
        self._bidx = bidx

        return Trace(np.array(pcs, dtype=np.int64),
                     np.array(ninstrs, dtype=np.int16),
                     np.array(kinds, dtype=np.int8),
                     np.array(takens, dtype=bool),
                     np.array(targets, dtype=np.int64),
                     self.generated)


def generate_trace(generated: GeneratedProgram, n_blocks: int,
                   seed: int = 1, warmup_blocks: int = 0) -> Trace:
    """One-shot trace generation, with an optional discarded warm-up.

    The warm-up prefix lets the executor settle into its steady-state mix
    of request types before the measured window begins (the paper's SMARTS
    methodology similarly warms structures before measuring).
    """
    generator = TraceGenerator(generated, seed=seed)
    if warmup_blocks > 0:
        generator.run(warmup_blocks)
    return generator.run(n_blocks)
