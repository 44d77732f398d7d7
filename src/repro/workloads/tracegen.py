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

from array import array
from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from repro.cfg.draws import Draws
from repro.cfg.generator import GeneratedProgram, choice_cdf
from repro.cfg.model import CondBehavior, Program
from repro.errors import TraceError
from repro.isa import BranchKind
from repro.workloads.trace import Trace

#: The executor's per-block operations.  A conditional's is its
#: ``CondBehavior`` value; the others say how the next block is found.
_OP_BIASED, _OP_LOOP, _OP_ALTERNATE = map(int, CondBehavior)
_OP_JUMP, _OP_CALL, _OP_INDIRECT, _OP_RET = range(3, 7)

#: The numpy dtype of an ``array('l')`` item (a C long).
_LONG = np.dtype("l")

#: ``Generator.choice``'s tolerance on the sum of its probabilities.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _walk_columns(program: Program) -> Tuple[bytes, array, array, array]:
    """The columns the executor walks, compact (built once).

    ``(op, arg, next, indirect)``, the first three indexed by global
    block.  ``op`` is the block's ``_OP_*`` operation, one byte each.
    ``arg`` is an ``array('d')``: a biased conditional's taken
    probability, a loop's trip count (``max(2, int(param))``) and an
    indirect call's candidate count, else 0.0.  ``next`` is an
    ``array('i')``: a conditional's or jump's taken successor, a direct
    call's (one candidate callee) entry block, and an indirect call's
    offset into ``indirect``, the ``array('l')`` entry blocks of its
    candidates.  About 13 bytes a block, built from uint8, int32 and
    float64 temporaries of the program's length.  Kept on
    ``program.derived`` and shared by every trace of the program.
    """
    columns = program.derived.get("tracegen.columns")
    if columns is None:
        kind, start = program.kind, program.callee_start[:-1]
        count = program.callee_start[1:] - start
        calling = (kind == BranchKind.CALL) | (kind == BranchKind.TRAP)
        direct = calling & (count == 1)
        indirect = calling & (count > 1)
        cond = kind == BranchKind.COND
        op = np.full(len(kind), _OP_RET, dtype=np.uint8)
        op[cond] = program.behavior[cond]
        op[kind == BranchKind.JUMP] = _OP_JUMP
        op[direct] = _OP_CALL
        op[indirect] = _OP_INDIRECT
        nxt = program.taken_succ.astype(np.int32)
        nxt[direct] = program.func_start[program.callees[start[direct]]]
        nxt[indirect] = start[indirect]
        param = program.behavior_param
        arg = np.zeros(len(kind))
        biased = op == _OP_BIASED
        arg[biased] = param[biased]
        loops = op == _OP_LOOP
        arg[loops] = np.maximum(2.0, np.trunc(param[loops]))
        arg[indirect] = count[indirect]
        columns = program.derived["tracegen.columns"] = (
            op.tobytes(), array("d", arg.tobytes()),
            array("i", nxt.tobytes()), array("l", program.func_start[
                program.callees].astype(_LONG, copy=False).tobytes()))
    return columns


class TraceGenerator:
    """Stateful executor of a :class:`GeneratedProgram`.

    The generator can be advanced incrementally (``run(n)``, or
    ``skip(n)``, which builds no trace), which the experiment layer uses
    to produce warm-up prefixes and measurement windows from a single
    deterministic stream.  Its position is a global block index of the
    program's columns.  Its draws are those of
    ``numpy.random.default_rng(seed)``, read through
    :class:`~repro.cfg.draws.Draws`: one ``random()`` per biased
    conditional and per dispatched request, one ``integers(0, n)`` per
    indirect call.
    """

    def __init__(self, generated: GeneratedProgram, seed: int = 1) -> None:
        self.generated = generated
        self.program = generated.program
        self._draws = Draws(seed)
        # Global block indices to resume at on return.
        self._stack: List[int] = []
        # Loop/alternate per-branch counters, keyed by global block.
        self._counters: Dict[int, int] = {}
        roots = generated.roots
        weights = np.asarray(generated.root_weights, dtype=np.float64)
        if (weights.shape != (len(roots),) or not (weights >= 0).all()
                or not abs(weights.sum() - 1.0) <= _P_ATOL):
            raise TraceError(
                f"root_weights must be {len(roots)} non-negative "
                f"probabilities summing to 1"
            )
        self._root_cdf = choice_cdf(weights)
        self._root_blocks = self.program.func_start[
            np.asarray(roots, dtype=np.int64)].tolist()
        self._block = self._pick_root()

    def _pick_root(self) -> int:
        # The draw of rng.choice(len(roots), p=root_weights): the entry
        # block of the chosen root.
        return self._root_blocks[bisect_right(self._root_cdf,
                                              self._draws.random())]

    def run(self, n_blocks: int) -> Trace:
        """Execute *n_blocks* dynamic basic blocks and return the trace."""
        blocks, takens = self._walk(n_blocks)
        # Each block's target is where control went next.
        program = self.program
        executed = np.array(blocks, dtype=np.int64)
        pc = program.block_pc[executed]
        target = np.empty_like(pc)
        target[:-1] = pc[1:]
        target[-1] = program.block_pc[self._block]
        return Trace(pc, program.ninstr[executed].astype(np.int16),
                     program.kind[executed], np.array(takens, dtype=bool),
                     target, self.generated)

    def skip(self, n_blocks: int) -> None:
        """Execute *n_blocks* blocks without building their trace: the
        next ``run`` starts where ``run(n_blocks)`` would have left."""
        self._walk(n_blocks)

    def _walk(self, n_blocks: int) -> Tuple[List[int], List[bool]]:
        """Execute *n_blocks* blocks: the block run at each step and
        whether its branch was taken."""
        if n_blocks < 1:
            raise TraceError(f"n_blocks must be >= 1, got {n_blocks}")
        # Only conditionals can fall through, and they overwrite their
        # taken entry.
        blocks = [0] * n_blocks
        takens = [True] * n_blocks

        op_of, arg_of, next_of, indirect = _walk_columns(self.program)
        draws = self._draws
        u = draws.u
        stack = self._stack
        counters = self._counters
        b = self._block
        # Each step reads at most one buffered draw inline (``u[i]``), so
        # the buffer is topped up once per buffer's worth of steps.
        i = draws.i
        end = len(u) - 1
        for step in range(n_blocks):
            if i == end:
                draws.i = i
                i = draws.ensure(1)
                end = len(u) - 1
            blocks[step] = b
            op = op_of[b]
            if op == _OP_BIASED:
                if u[i] < arg_of[b]:
                    b = next_of[b]
                else:
                    takens[step] = False
                    b += 1
                i += 1
            elif op == _OP_LOOP:
                count = counters.get(b, 0) + 1
                if count < arg_of[b]:
                    counters[b] = count
                    b = next_of[b]
                else:
                    counters[b] = 0
                    takens[step] = False
                    b += 1
            elif op == _OP_ALTERNATE:
                count = counters.get(b, 0)
                counters[b] = count ^ 1
                if count == 0:
                    b = next_of[b]
                else:
                    takens[step] = False
                    b += 1
            elif op == _OP_JUMP:
                b = next_of[b]
            elif op == _OP_CALL:
                stack.append(b + 1)
                b = next_of[b]
            elif op == _OP_INDIRECT:
                stack.append(b + 1)
                draws.i = i
                b = indirect[next_of[b] + draws.integers(0, int(arg_of[b]))]
                i = draws.i
                end = len(u) - 1
            elif stack:  # RET or TRAP_RET
                b = stack.pop()
            else:
                # Request complete: dispatch the next request type.
                b = self._root_blocks[bisect_right(self._root_cdf, u[i])]
                i += 1
        draws.i = i
        self._block = b
        return blocks, takens


def generate_trace(generated: GeneratedProgram, n_blocks: int,
                   seed: int = 1, warmup_blocks: int = 0) -> Trace:
    """One-shot trace generation, with an optional discarded warm-up.

    The warm-up prefix lets the executor settle into its steady-state mix
    of request types before the measured window begins (the paper's SMARTS
    methodology similarly warms structures before measuring).
    """
    generator = TraceGenerator(generated, seed=seed)
    if warmup_blocks > 0:
        generator.skip(warmup_blocks)
    return generator.run(n_blocks)
