"""Static program model: flat block and function columns, and the image.

A :class:`Program` holds a synthetic program as flat numpy columns in
*layout order*: blocks are numbered globally in address order, each
function owns a contiguous run of them (CSR offsets ``func_start``), and
every cross-reference is an index — a conditional's or jump's taken
successor is a global block index, a call's candidate callees are
function ids (CSR offsets ``callee_start``).  Functions are placed
sequentially in a flat 48-bit virtual address space, aligned to cache
lines, with small gaps so that set-index conflicts resemble a real
binary; the placement is one cumulative sum.  The model is *static*;
execution semantics live in :mod:`repro.workloads.tracegen`.

:class:`BasicBlock` and :class:`Function` are plain records: the input
of a hand-built program (:meth:`Program.from_functions`) and read-only
views of a built one (:meth:`Program.function`).  Nothing on the
simulation path builds or reads them.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ProgramError
from repro.heap import estimated_bytes
from repro.isa import BLOCK_SHIFT, INSTR_BYTES, BranchKind


class CondBehavior(enum.IntEnum):
    """Outcome model of a conditional branch.

    * ``BIASED`` — i.i.d. Bernoulli with per-branch probability ``param``.
    * ``LOOP`` — taken ``param - 1`` consecutive times, then not taken
      (classic backward loop branch; highly predictable by TAGE).
    * ``ALTERNATE`` — strictly alternates taken/not-taken.
    """

    BIASED = 0
    LOOP = 1
    ALTERNATE = 2


#: Branch kinds with a static taken successor / with callees.
_TARGETED = (BranchKind.COND, BranchKind.JUMP)
_CALLING = (BranchKind.CALL, BranchKind.TRAP)

#: ``BranchKind`` members indexed by raw kind value.
_KINDS: Tuple[BranchKind, ...] = tuple(sorted(BranchKind))

#: A program's stored columns, in constructor order.
_COLUMNS = ("ninstr", "kind", "taken_succ", "callee_start", "callees",
            "behavior", "behavior_param", "func_start", "is_kernel")

#: One static branch of the image: ``(block_pc, ninstr, kind, target)``.
Branch = Tuple[int, int, BranchKind, int]


@dataclass(frozen=True)
class BasicBlock:
    """One static basic block: a record, not part of a built program.

    Attributes:
        ninstr: instruction count, including the terminating branch.
        kind: terminating branch kind.
        taken_succ: function-local index of the taken successor for
            conditional branches and unconditional jumps; unused for
            calls/returns/traps.
        callees: candidate callee function ids for CALL/TRAP blocks (one
            entry for a direct call, several for an indirect call site).
        behavior: outcome model for conditional branches.
        behavior_param: bias probability or loop trip count.
    """

    ninstr: int
    kind: BranchKind
    taken_succ: int = -1
    callees: Tuple[int, ...] = ()
    behavior: CondBehavior = CondBehavior.BIASED
    behavior_param: float = 0.5

    def __post_init__(self) -> None:
        if self.ninstr < 1 or self.ninstr > 31:
            # 31 is the largest value the 5-bit BTB size field can encode.
            raise ProgramError(
                f"block ninstr must be in [1, 31], got {self.ninstr}"
            )
        kind = self.kind
        if kind in _CALLING and not self.callees:
            raise ProgramError(f"{kind.name} block needs callees")
        if kind in _TARGETED and self.taken_succ < 0:
            raise ProgramError(f"{kind.name} block needs taken_succ")


@dataclass(frozen=True)
class Function:
    """A function record: contiguous basic blocks, entered at block 0.

    ``base_addr`` is -1 for a hand-built record and the laid-out address
    for a view of a built program; block start addresses are the
    cumulative instruction offsets from it.
    """

    fid: int
    blocks: Sequence[BasicBlock]
    is_kernel: bool = False
    base_addr: int = -1
    _block_addrs: Tuple[int, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        blocks = self.blocks
        if not blocks:
            raise ProgramError(f"function {self.fid} has no blocks")
        terminator = blocks[-1].kind
        expected = BranchKind.TRAP_RET if self.is_kernel else BranchKind.RET
        if terminator != expected:
            raise ProgramError(
                f"function {self.fid} must end with {expected.name}, "
                f"ends with {terminator.name}"
            )
        nblocks = len(blocks)
        for idx, block in enumerate(blocks):
            if block.kind in _TARGETED \
                    and not 0 <= block.taken_succ < nblocks:
                raise ProgramError(
                    f"function {self.fid} block {idx}: taken_succ "
                    f"{block.taken_succ} out of range"
                )
        addrs: List[int] = []
        if self.base_addr >= 0:
            addr = self.base_addr
            for block in blocks:
                addrs.append(addr)
                addr += block.ninstr * INSTR_BYTES
        object.__setattr__(self, "_block_addrs", tuple(addrs))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return sum(b.ninstr for b in self.blocks) * INSTR_BYTES

    def block_addr(self, idx: int) -> int:
        """Start address of block *idx* (requires a laid-out function)."""
        return self.block_addrs[idx]

    @property
    def block_addrs(self) -> Tuple[int, ...]:
        """Start address of every block (requires a laid-out function)."""
        if self.base_addr < 0:
            raise ProgramError(f"function {self.fid} has not been laid out")
        return self._block_addrs


class ProgramImage(Mapping):
    """The binary image: cache-line index -> static branches in the line.

    The predecoder (Section 4.2.3) extracts branch metadata from fetched
    cache lines to fill BTBs, so it needs, per branch: the block it
    terminates, its kind and its static taken target.  The image is the
    program's block columns plus one ``target`` column — a conditional
    or jump targets its taken successor's address, a call or trap its
    first candidate callee (an indirect site may go elsewhere
    dynamically, and the BTB then mispredicts), and a return has no
    static target (the RAS supplies it) — and per-line bounds: the
    branches whose branch instruction lies in ``lines[i]`` are blocks
    ``bounds[i]:bounds[i + 1]``.  Blocks are in address order, so the
    lines come out ascending and no sort is needed.

    As a mapping it holds every line with a branch, in ascending order.
    A line's :data:`Branch` tuples are built on first use and cached;
    the image is shared by every predecoder of the program.
    """

    def __init__(self, block_pc: np.ndarray, ninstr: np.ndarray,
                 kind: np.ndarray, target: np.ndarray) -> None:
        self.block_pc = block_pc
        self.ninstr = ninstr
        self.kind = kind
        self.target = target
        branch_line = (block_pc + (ninstr.astype(np.int64) - 1)
                       * INSTR_BYTES) >> BLOCK_SHIFT
        starts = np.flatnonzero(np.diff(branch_line)) + 1
        #: Distinct lines holding a branch, ascending.
        self.lines = branch_line[np.concatenate(([0], starts))]
        #: ``len(lines) + 1`` block offsets, one run per line.
        self.bounds = np.concatenate(([0], starts, [len(branch_line)]))
        self._branches: Dict[int, Tuple[Branch, ...]] = {}
        self._cond: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lines.tolist())

    def __getitem__(self, line: int) -> Tuple[Branch, ...]:
        branches = self.branches(line)
        if not branches:
            raise KeyError(line)
        return branches

    def branches(self, line: int) -> Tuple[Branch, ...]:
        """Every static branch whose branch instruction is in *line*."""
        cached = self._branches.get(line)
        if cached is None:
            lines = self.lines
            index = int(np.searchsorted(lines, line))
            if index < len(lines) and lines[index] == line:
                lo, hi = self.bounds[index], self.bounds[index + 1]
                cached = tuple(zip(
                    self.block_pc[lo:hi].tolist(),
                    self.ninstr[lo:hi].tolist(),
                    [_KINDS[k] for k in self.kind[lo:hi].tolist()],
                    self.target[lo:hi].tolist()))
            else:
                cached = ()
            self._branches[line] = cached
        return cached

    def cond_triples(self, line: int) -> Tuple[Tuple[int, int, int], ...]:
        """Conditional branches in *line* as (block_pc, ninstr, target)."""
        cached = self._cond.get(line)
        if cached is None:
            cached = self._cond[line] = tuple(
                (pc, ninstr, target)
                for pc, ninstr, kind, target in self.branches(line)
                if kind is BranchKind.COND)
        return cached

    @property
    def cached_bytes(self) -> int:
        """:func:`repro.heap.estimated_bytes` of the two line caches, from
        their lengths: a slot per cached line, and per cached branch a
        slot plus its tuple's four (:meth:`branches`) or three
        (:meth:`cond_triples`) slots."""
        return 8 * (len(self._branches) + len(self._cond)) \
            + 40 * sum(map(len, self._branches.values())) \
            + 32 * sum(map(len, self._cond.values()))


class Program:
    """A laid-out synthetic program as flat, layout-ordered columns.

    Per block (global index, address order): ``ninstr``, ``kind``,
    ``taken_succ`` (global block index, -1 where unused), ``behavior``,
    ``behavior_param`` and candidate callees in CSR form (function ids
    ``callees[callee_start[b]:callee_start[b + 1]]``).  Per function:
    ``func_start`` (``nfunctions + 1`` block offsets) and ``is_kernel``.
    The layout adds ``func_base`` and ``block_pc``.

    Built by the generator, or from records by :meth:`from_functions`;
    the constructor validates the columns either way, and so does
    unpickling, which ships the columns only.
    """

    def __init__(self, *, ninstr, kind, taken_succ, callee_start, callees,
                 behavior, behavior_param, func_start, is_kernel,
                 base_addr: int = 0x10000, gap_lines: int = 1) -> None:
        self.ninstr = np.asarray(ninstr, dtype=np.int8)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.taken_succ = np.asarray(taken_succ, dtype=np.int32)
        self.callee_start = np.asarray(callee_start, dtype=np.int32)
        self.callees = np.asarray(callees, dtype=np.int32)
        self.behavior = np.asarray(behavior, dtype=np.int8)
        self.behavior_param = np.asarray(behavior_param, dtype=np.float64)
        self.func_start = np.asarray(func_start, dtype=np.int64)
        self.is_kernel = np.asarray(is_kernel, dtype=bool)
        self._placement = (base_addr, gap_lines)
        #: Each :attr:`derived` entry with its estimated bytes, measured
        #: once (entries are read-only once set).
        self._derived_bytes: Dict[object, Tuple[object, int]] = {}
        self._validate()
        self._layout(base_addr, gap_lines)

    @classmethod
    def from_functions(cls, functions: Sequence[Function],
                       base_addr: int = 0x10000,
                       gap_lines: int = 1) -> "Program":
        """A program from function records (their addresses are ignored)."""
        if not functions:
            raise ProgramError("program needs at least one function")
        for idx, function in enumerate(functions):
            if function.fid != idx:
                raise ProgramError(
                    f"function ids must be dense: index {idx} has fid "
                    f"{function.fid}"
                )
        sizes = [function.nblocks for function in functions]
        blocks = [block for function in functions
                  for block in function.blocks]
        first = np.repeat(np.cumsum([0] + sizes[:-1]), sizes).tolist()
        return cls(
            ninstr=[block.ninstr for block in blocks],
            kind=[block.kind for block in blocks],
            taken_succ=[start + block.taken_succ
                        if block.kind in _TARGETED else -1
                        for block, start in zip(blocks, first)],
            callee_start=np.cumsum([0] + [len(b.callees) for b in blocks]),
            callees=[fid for block in blocks for fid in block.callees],
            behavior=[block.behavior for block in blocks],
            behavior_param=[block.behavior_param for block in blocks],
            func_start=np.cumsum([0] + sizes),
            is_kernel=[function.is_kernel for function in functions],
            base_addr=base_addr, gap_lines=gap_lines)

    def __getstate__(self) -> dict:
        # Only the columns and the placement travel: the layout, the
        # image and the derived memo are rebuilt where they are used.
        state = {name: getattr(self, name) for name in _COLUMNS}
        state["base_addr"], state["gap_lines"] = self._placement
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def _validate(self) -> None:
        """Reject columns no generated program could have."""
        func_start, kind = self.func_start, self.kind
        nblocks = len(kind)
        nfunctions = len(func_start) - 1
        if nfunctions < 1:
            raise ProgramError("program needs at least one function")
        columns = (self.ninstr, self.taken_succ, self.behavior,
                   self.behavior_param)
        if any(len(column) != nblocks for column in columns) \
                or len(self.callee_start) != nblocks + 1 \
                or len(self.is_kernel) != nfunctions:
            raise ProgramError("program columns differ in length")
        if func_start[0] != 0 or func_start[-1] != nblocks:
            raise ProgramError("function offsets do not span the blocks")
        sizes = np.diff(func_start)
        if (sizes < 1).any():
            raise ProgramError(
                f"function {int(np.argmax(sizes < 1))} has no blocks")
        bad = (self.ninstr < 1) | (self.ninstr > 31)
        if bad.any():
            # 31 is the largest value the 5-bit BTB size field can encode.
            raise ProgramError(f"block ninstr must be in [1, 31], got "
                               f"{int(self.ninstr[bad][0])}")
        if ((kind < 0) | (kind > max(BranchKind))).any():
            raise ProgramError("unknown branch kind")
        callee_start = self.callee_start
        if callee_start[0] != 0 or callee_start[-1] != len(self.callees) \
                or (np.diff(callee_start) < 0).any():
            raise ProgramError("malformed callee offsets")
        if ((self.callees < 0) | (self.callees >= nfunctions)).any():
            raise ProgramError("callee out of range")
        calling = np.isin(kind, _CALLING)
        bad = calling & (np.diff(callee_start) == 0)
        if bad.any():
            raise ProgramError(
                f"{_KINDS[kind[bad][0]].name} block needs callees")
        # Each block's function bounds, as int32 like ``taken_succ``.
        bounds = func_start.astype(np.int32)
        succ = self.taken_succ
        bad = np.isin(kind, _TARGETED) & (
            (succ < np.repeat(bounds[:-1], sizes))
            | (succ >= np.repeat(bounds[1:], sizes)))
        if bad.any():
            block = int(np.argmax(bad))
            fid = int(np.searchsorted(func_start, block, side="right")) - 1
            raise ProgramError(
                f"function {fid} block {block - int(func_start[fid])}: "
                f"taken_succ out of range")
        last = kind[func_start[1:] - 1]
        expected = np.where(self.is_kernel, int(BranchKind.TRAP_RET),
                            int(BranchKind.RET))
        bad = last != expected
        if bad.any():
            fid = int(np.argmax(bad))
            raise ProgramError(
                f"function {fid} must end with {_KINDS[expected[fid]].name}, "
                f"ends with {_KINDS[last[fid]].name}")

    def _layout(self, base_addr: int, gap_lines: int) -> None:
        """Place functions in order, each aligned to a cache line.

        An aligned function's successor starts at its base plus its
        size rounded up to whole lines plus the gap, so the bases are
        one cumulative sum; block addresses are the instruction offsets
        from their function's base.
        """
        line = 1 << BLOCK_SHIFT
        offsets = np.concatenate(
            ([0], np.cumsum(self.ninstr, dtype=np.int64))) * INSTR_BYTES
        first = offsets[self.func_start]
        size = first[1:] - first[:-1]
        stride = ((size + line - 1) & ~(line - 1)) + gap_lines * line
        start = (base_addr + line - 1) & ~(line - 1)
        #: Start address of every function.
        self.func_base = start + np.concatenate(
            ([0], np.cumsum(stride[:-1])))
        #: Start address of every block.
        self.block_pc = offsets[:-1] + np.repeat(
            self.func_base - first[:-1], np.diff(self.func_start))

    @property
    def nfunctions(self) -> int:
        return len(self.func_start) - 1

    @property
    def total_blocks(self) -> int:
        return len(self.kind)

    @property
    def footprint_bytes(self) -> int:
        """Static code footprint: last byte minus first byte of code."""
        end = int(self.block_pc[-1]) + int(self.ninstr[-1]) * INSTR_BYTES
        return end - int(self.func_base[0])

    def function(self, fid: int) -> Function:
        """A read-only record view of function *fid*."""
        lo, hi = int(self.func_start[fid]), int(self.func_start[fid + 1])
        offsets = self.callee_start[lo:hi + 1].tolist()
        callees = self.callees[offsets[0]:offsets[-1]].tolist()
        offsets = [offset - offsets[0] for offset in offsets]
        blocks = [
            BasicBlock(ninstr, _KINDS[kind],
                       succ - lo if kind in _TARGETED else succ,
                       tuple(callees[offsets[i]:offsets[i + 1]]),
                       CondBehavior(behavior), param)
            for i, (ninstr, kind, succ, behavior, param) in enumerate(zip(
                self.ninstr[lo:hi].tolist(), self.kind[lo:hi].tolist(),
                self.taken_succ[lo:hi].tolist(),
                self.behavior[lo:hi].tolist(),
                self.behavior_param[lo:hi].tolist()))]
        return Function(fid, tuple(blocks), bool(self.is_kernel[fid]),
                        int(self.func_base[fid]))

    @property
    def functions(self) -> List[Function]:
        """Read-only record views of every function (built per access)."""
        return [self.function(fid) for fid in range(self.nfunctions)]

    @cached_property
    def image(self) -> ProgramImage:
        """The predecoder's line-indexed view of the program (lazy).

        A few vector operations over the columns, timed as a
        ``build_image`` span (a run-manifest phase beside
        ``build_program``/``build_trace``).
        """
        # repro: allow[RPR002] -- observability span; only times it
        from repro.obs import tracing
        with tracing.span("build_image", functions=self.nfunctions):
            kind = self.kind
            first_callee = self.callees[
                np.minimum(self.callee_start[:-1], len(self.callees) - 1)] \
                if len(self.callees) else np.zeros(len(kind), np.int32)
            target = np.where(
                np.isin(kind, _TARGETED),
                self.block_pc[np.maximum(self.taken_succ, 0)],
                np.where(np.isin(kind, _CALLING),
                         self.func_base[first_callee], 0))
            return ProgramImage(self.block_pc, self.ninstr, kind, target)

    @cached_property
    def derived(self) -> dict:
        """Memo for program-derived simulation state shared across cells.

        Keyed by the deriving component and its geometry (the engines
        keep the warmed LLC state here, see
        ``repro.core.frontend._warm_llc_state``).  Entries are read-only
        and never shipped: unpickling rebuilds the program without them.
        """
        return {}

    def estimated_bytes(self) -> int:
        """Bytes this program holds, by :func:`repro.heap.estimated_bytes`.

        The stored and layout columns, the image once built (its own
        arrays and its per-line branch caches; the block columns it
        shares with the program count once) and every :attr:`derived`
        entry (the executor's walk columns, warm-LLC snapshots), each
        measured once, so a measure costs microseconds.  The program
        memo's ``memo.program_bytes`` gauge sums this.
        """
        columns = [getattr(self, name) for name in _COLUMNS] \
            + [self.func_base, self.block_pc]
        total = sum(column.nbytes for column in columns)
        image = self.__dict__.get("image")
        if image is not None:
            total += image.target.nbytes + image.lines.nbytes \
                + image.bounds.nbytes + image.cached_bytes
        known, measured = self._derived_bytes, {}
        for key, value in self.__dict__.get("derived", {}).items():
            entry = known.get(key)
            if entry is None or entry[0] is not value:
                entry = (value, estimated_bytes(value))
            measured[key] = entry
            total += 8 + entry[1]
        self._derived_bytes = measured
        return total

    def unconditional_count(self) -> int:
        """Number of static unconditional branches (U-BTB + RIB residents)."""
        return int((self.kind != int(BranchKind.COND)).sum())
