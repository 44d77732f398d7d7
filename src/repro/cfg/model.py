"""Static program model: functions, basic blocks and the binary image.

A :class:`Program` is a list of :class:`Function` objects laid out in a
flat 48-bit virtual address space (functions are placed sequentially,
aligned to cache lines, with small random gaps so that set-index conflicts
resemble a real binary).  The model is *static*; execution semantics live
in :mod:`repro.workloads.tracegen`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.errors import ProgramError
from repro.isa import (
    BLOCK_SHIFT,
    INSTR_BYTES,
    BranchKind,
    branch_pc,
    is_unconditional,
)


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


@dataclass(frozen=True)
class BasicBlock:
    """One static basic block inside a function.

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

    def __reduce__(self):
        # Unpickle through the constructor: a shipped block re-validates
        # and is stored like a built one (the default path restores a
        # larger, unshared instance dict).  The pickle memo keeps
        # interned blocks shared; a default outcome model is left to the
        # constructor, so its float stays one shared constant too.
        args = (self.ninstr, self.kind, self.taken_succ, self.callees,
                self.behavior, self.behavior_param)
        if args[4:] == (CondBehavior.BIASED, 0.5):
            args = args[:4]
        return BasicBlock, args


@dataclass
class Function:
    """A function: contiguous basic blocks, entered at block 0.

    ``base_addr`` is assigned by :meth:`Program.layout`; block start
    addresses are the cumulative instruction offsets from it.
    """

    fid: int
    blocks: List[BasicBlock]
    is_kernel: bool = False
    base_addr: int = -1
    _block_addrs: List[int] = field(default_factory=list, repr=False)

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

    def __reduce__(self):
        # Through the constructor, like BasicBlock: re-validated on
        # unpickling, and no bigger than a built function.  Addresses
        # belong to the program, whose constructor lays its functions
        # out again, so they are not shipped: a function unpickled on
        # its own comes back not laid out.
        return Function, (self.fid, self.blocks, self.is_kernel)

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return sum(b.ninstr for b in self.blocks) * INSTR_BYTES

    def block_addr(self, idx: int) -> int:
        """Start address of block *idx* (requires a laid-out program)."""
        return self.block_addrs[idx]

    @property
    def block_addrs(self) -> List[int]:
        """Start address of every block (requires a laid-out program)."""
        if self.base_addr < 0:
            raise ProgramError(f"function {self.fid} has not been laid out")
        return self._block_addrs

    def _layout(self, base: int) -> int:
        """Assign addresses from *base*; returns the end address."""
        self.base_addr = base
        self._block_addrs = []
        addr = base
        for block in self.blocks:
            self._block_addrs.append(addr)
            addr += block.ninstr * INSTR_BYTES
        return addr


@dataclass(frozen=True, slots=True)
class StaticBranch:
    """Predecoder's view of one static branch in the binary image.

    The predecoder (Section 4.2.3) extracts branch metadata from fetched
    cache lines to fill BTBs, so it needs, per branch: the basic block it
    terminates, its kind and its taken target address.  An image holds
    one per static block, so the class is slotted: the six Table 2
    images take 27.6 MB instead of 36.5 MB with instance dicts.
    """

    block_pc: int
    ninstr: int
    kind: BranchKind
    target: int

    @property
    def branch_pc(self) -> int:
        return branch_pc(self.block_pc, self.ninstr)


class Program:
    """A laid-out synthetic program.

    Provides the *binary image* view needed by the predecoder: a mapping
    from cache-line index to the static branches whose branch instruction
    lies in that line.
    """

    def __init__(self, functions: List[Function], base_addr: int = 0x10000,
                 gap_lines: int = 1, seed: Optional[int] = None) -> None:
        if not functions:
            raise ProgramError("program needs at least one function")
        for idx, function in enumerate(functions):
            if function.fid != idx:
                raise ProgramError(
                    f"function ids must be dense: index {idx} has fid "
                    f"{function.fid}"
                )
        self.functions = functions
        self._placement = (base_addr, gap_lines)
        self._layout(base_addr, gap_lines)
        self._image: Optional[Dict[int, List[StaticBranch]]] = None

    def __reduce__(self):
        # Through the constructor, like its functions: unpickling makes
        # the generator's own constructor calls, so it re-checks the
        # function ids and lays the functions out as a build does.  The
        # lazy image is not shipped.
        return Program, (self.functions, *self._placement)

    def _layout(self, base_addr: int, gap_lines: int) -> None:
        line = 1 << BLOCK_SHIFT
        addr = base_addr
        for function in self.functions:
            # Align each function to a cache line, as linkers commonly do.
            addr = (addr + line - 1) & ~(line - 1)
            addr = function._layout(addr)
            addr += gap_lines * line

    @property
    def nfunctions(self) -> int:
        return len(self.functions)

    @property
    def total_blocks(self) -> int:
        return sum(f.nblocks for f in self.functions)

    @property
    def footprint_bytes(self) -> int:
        """Static code footprint: last byte minus first byte of code."""
        first = self.functions[0].base_addr
        last_fn = self.functions[-1]
        last = last_fn.block_addr(last_fn.nblocks - 1) \
            + last_fn.blocks[-1].ninstr * INSTR_BYTES
        return last - first

    @property
    def image(self) -> Dict[int, List[StaticBranch]]:
        """Cache-line index -> static branches in that line (lazy).

        One walk of every block in layout order: a conditional or jump
        targets its taken successor's address, a call or trap its first
        candidate callee (an indirect site may go elsewhere dynamically,
        and the BTB then mispredicts), and a return has no static target
        (the RAS supplies it).  The build is timed as a ``build_image``
        span (a run-manifest phase beside ``build_program``/
        ``build_trace``).
        """
        if self._image is None:
            # repro: allow[RPR002] -- observability span; only times it
            from repro.obs import tracing
            image: Dict[int, List[StaticBranch]] = {}
            functions = self.functions
            COND, JUMP = BranchKind.COND, BranchKind.JUMP
            CALL, TRAP = BranchKind.CALL, BranchKind.TRAP
            with tracing.span("build_image", functions=self.nfunctions):
                for function in functions:
                    addrs = function.block_addrs
                    for block, pc in zip(function.blocks, addrs):
                        kind = block.kind
                        if kind is COND or kind is JUMP:
                            target = addrs[block.taken_succ]
                        elif kind is CALL or kind is TRAP:
                            target = functions[block.callees[0]].base_addr
                        else:
                            target = 0
                        ninstr = block.ninstr
                        image.setdefault(
                            branch_pc(pc, ninstr) >> BLOCK_SHIFT, []
                        ).append(StaticBranch(pc, ninstr, kind, target))
            self._image = image
        return self._image

    @cached_property
    def static_targets(self) -> Dict[int, int]:
        """Block pc -> static taken target of its branch (lazy).

        A decoder genuinely knows a direct branch's target even when it
        is not taken, so BTB fills for not-taken conditionals use this
        target rather than the trace's fall-through address.  A pure
        function of the program, so every trace of it (and both engines)
        share one copy.
        """
        return {branch.block_pc: branch.target
                for branches in self.image.values() for branch in branches}

    @cached_property
    def derived(self) -> dict:
        """Memo for program-derived simulation state shared across cells.

        Keyed by the deriving component and its geometry (the engines
        keep the warmed LLC state here, see
        ``repro.core.frontend._warm_llc_state``).  Entries are read-only
        and never shipped: unpickling rebuilds the program without them.
        """
        return {}

    def unconditional_count(self) -> int:
        """Number of static unconditional branches (U-BTB + RIB residents)."""
        return sum(
            1
            for function in self.functions
            for block in function.blocks
            if is_unconditional(block.kind)
        )
