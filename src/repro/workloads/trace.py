"""Retire-order basic-block traces.

A :class:`Trace` stores one dynamic basic block per entry in parallel
numpy arrays — the compact representation that keeps pure-Python
simulation tractable (the paper's Flexus runs are replaced by reduced
traces; see DESIGN.md).  Each entry records the block's start pc,
instruction count, terminating-branch kind, taken flag and the address
control flow actually continued at.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.errors import TraceError
from repro.isa import BLOCK_SHIFT, INSTR_BYTES, BlockRecord, BranchKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cfg.generator import GeneratedProgram


class TraceHotColumns(NamedTuple):
    """Per-block columns materialised as native Python lists.

    The simulation engine's inner loop indexes these instead of the numpy
    arrays: element access on a ``list`` of native ints/bools is several
    times cheaper than numpy scalar indexing plus ``int()`` unboxing, and
    the derived columns (cache-line indices, fall-through pcs) are
    vectorised once here rather than recomputed per block per scheme.
    Computed lazily and cached on the :class:`Trace`, so all schemes
    simulated against the same trace share one copy.

    The integer columns are interned: every list slot holding a given
    value refers to one ``int`` object, shared across columns (a block's
    target is usually the next block's pc).  A trace repeats few
    addresses, so the lists cost little more than their 8-byte slots.
    The values and types equal the numpy columns' ``tolist()``.
    """

    pc: List[int]
    ninstr: List[int]
    kind: List[int]
    taken: List[bool]
    target: List[int]
    #: Cache-line index of each block's first instruction.
    first_line: List[int]
    #: Cache-line index of each block's terminating branch.
    last_line: List[int]
    #: Not-taken successor address (``pc + ninstr * INSTR_BYTES``).
    fallthrough: List[int]


class TraceColumnArrays(NamedTuple):
    """The stored per-block columns as numpy arrays, for the columnar engine.

    The columnar engine (:mod:`repro.core.engine_columnar`) consumes
    whole-trace array passes instead of per-block scalar reads.  These
    are the trace's own arrays, not copies: derived geometry (line
    indices, float instruction counts, prefix counts) costs a
    columnar pass microseconds to recompute, so none of it is kept.
    """

    pc: np.ndarray
    #: Instruction counts (int16, as stored).
    ninstr: np.ndarray
    kind: np.ndarray
    taken: np.ndarray
    target: np.ndarray


def _estimated_bytes(value) -> int:
    """:meth:`Trace.estimated_bytes` of one derived value."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        total = 8 * len(value)
        if value and isinstance(value[0], (np.ndarray, bytes, bytearray,
                                           dict, list, tuple)):
            total += sum(_estimated_bytes(item) for item in value)
        return total
    return 0


class Trace:
    """A retire-order trace of dynamic basic blocks.

    Attributes:
        pc: int64 array of block start addresses.
        ninstr: int16 array of instruction counts.
        kind: int8 array of :class:`repro.isa.BranchKind` values.
        taken: bool array of branch outcomes.
        target: int64 array of successor addresses (taken target or
            fall-through).
        generated: the :class:`GeneratedProgram` the trace was produced
            from, used by predecoders for the binary image.
    """

    def __init__(self, pc: np.ndarray, ninstr: np.ndarray, kind: np.ndarray,
                 taken: np.ndarray, target: np.ndarray,
                 generated: Optional["GeneratedProgram"] = None) -> None:
        n = len(pc)
        if not (len(ninstr) == len(kind) == len(taken) == len(target) == n):
            raise TraceError("trace arrays must have equal length")
        if n == 0:
            raise TraceError("trace must contain at least one block")
        self.pc = np.asarray(pc, dtype=np.int64)
        self.ninstr = np.asarray(ninstr, dtype=np.int16)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.taken = np.asarray(taken, dtype=bool)
        self.target = np.asarray(target, dtype=np.int64)
        self.generated = generated
        #: Distinct int objects behind :attr:`hot` (0 until it is built).
        self._interned = 0

    def __len__(self) -> int:
        return len(self.pc)

    @cached_property
    def hot(self) -> TraceHotColumns:
        """Native-list columns plus precomputed per-block line geometry.

        First access pays one vectorised pass over the trace; subsequent
        accesses (every further scheme simulated on this trace) are free.
        The six integer columns are interned through one ``np.unique``
        over their concatenation, so equal values share one object.
        """
        n = len(self)
        pc = self.pc
        ninstr_wide = self.ninstr.astype(np.int64)
        branch_pc = pc + (ninstr_wide - 1) * INSTR_BYTES
        values, inverse = np.unique(np.concatenate((
            pc, self.target, pc + ninstr_wide * INSTR_BYTES,
            pc >> BLOCK_SHIFT, branch_pc >> BLOCK_SHIFT, ninstr_wide)),
            return_inverse=True)
        self._interned = len(values)
        shared = values.astype(object)[inverse]
        pcs, targets, fallthroughs, first_lines, last_lines, ninstrs = (
            shared[k * n:(k + 1) * n].tolist() for k in range(6))
        return TraceHotColumns(
            pc=pcs,
            ninstr=ninstrs,
            kind=self.kind.tolist(),
            taken=self.taken.tolist(),
            target=targets,
            first_line=first_lines,
            last_line=last_lines,
            fallthrough=fallthroughs,
        )

    @cached_property
    def cols(self) -> TraceColumnArrays:
        """The stored columns as the columnar engine's input (no copies)."""
        return TraceColumnArrays(pc=self.pc, ninstr=self.ninstr,
                                 kind=self.kind, taken=self.taken,
                                 target=self.target)

    @cached_property
    def derived(self) -> dict:
        """Memo for trace-derived preprocessing shared across schemes.

        Keyed by the deriving component (e.g. the engine caches TAGE
        folded-history sequences here); lives with the trace so every
        scheme simulated on it — and every simulation of the same cached
        trace — pays the derivation once.
        """
        return {}

    def estimated_bytes(self) -> int:
        """Bytes this trace holds, estimated without walking its lists.

        The stored arrays, :attr:`hot` (8 bytes per list slot plus 32 per
        interned int) and every :attr:`derived` entry (array ``nbytes``,
        ``bytes`` lengths, 8 bytes per list or tuple slot, recursing into
        containers of containers).  :attr:`cols` holds only the stored
        arrays.  The program is shared by every trace of a workload and
        is not counted.  The trace memo (:mod:`repro.workloads.profiles`)
        budgets on this.
        """
        total = sum(column.nbytes for column in (
            self.pc, self.ninstr, self.kind, self.taken, self.target))
        hot = self.__dict__.get("hot")
        if hot is not None:
            total += 8 * len(self) * len(hot) + 32 * self._interned
        return total + _estimated_bytes(self.__dict__.get("derived", {}))

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions in the trace."""
        return int(self.ninstr.sum())

    def record(self, i: int) -> BlockRecord:
        """Materialise entry *i* as a :class:`BlockRecord`."""
        return BlockRecord(
            pc=int(self.pc[i]),
            ninstr=int(self.ninstr[i]),
            kind=BranchKind(int(self.kind[i])),
            taken=bool(self.taken[i]),
            target=int(self.target[i]),
        )

    def records(self) -> Iterator[BlockRecord]:
        """Iterate all entries as :class:`BlockRecord` objects (slow path;
        the engine reads the arrays directly)."""
        for i in range(len(self)):
            yield self.record(i)

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-backed sub-trace covering ``[start, stop)``."""
        if not 0 <= start < stop <= len(self):
            raise TraceError(f"bad slice [{start}, {stop}) of {len(self)}")
        return Trace(self.pc[start:stop], self.ninstr[start:stop],
                     self.kind[start:stop], self.taken[start:stop],
                     self.target[start:stop], self.generated)

    #: Array names (and dtype kinds) a saved trace must provide.
    _COLUMNS = (("pc", "i"), ("ninstr", "i"), ("kind", "i"),
                ("taken", "b"), ("target", "i"))

    def save(self, path: str) -> None:
        """Persist the trace arrays to an .npz file.

        The :attr:`generated` program is deliberately **not** persisted
        (it is a large object graph, cheap to regenerate from the
        workload's :class:`~repro.cfg.generator.GeneratorParams`).  A
        trace loaded without it works with program-agnostic schemes
        (baseline/FDIP/RDIP), but schemes that predecode the binary
        image (Boomerang, Confluence, Shotgun) need the program back:
        rebuild it with ``build_program(workload)`` and pass it to
        :meth:`load` — scheme construction raises a
        :class:`~repro.errors.TraceError` otherwise.
        """
        np.savez_compressed(path, pc=self.pc, ninstr=self.ninstr,
                            kind=self.kind, taken=self.taken,
                            target=self.target)

    @classmethod
    def load(cls, path: str,
             generated: Optional["GeneratedProgram"] = None) -> "Trace":
        """Load a trace saved with :meth:`save`, validating its contents.

        Raises :class:`~repro.errors.TraceError` when the file is not a
        saved trace: missing columns, non-numeric dtypes, mismatched
        array lengths or out-of-range branch kinds all fail here, at
        the load site, instead of as cryptic errors deep inside a
        simulation.  Pass ``generated`` to reattach the program
        metadata that :meth:`save` does not persist.
        """
        try:
            data = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as error:
            raise TraceError(f"cannot load trace from {path!r}: {error}") \
                from error
        available = set(getattr(data, "files", ()))
        missing = [name for name, _ in cls._COLUMNS
                   if name not in available]
        if missing:
            raise TraceError(
                f"{path!r} is not a saved trace: missing arrays {missing}"
            )
        arrays = {}
        lengths = {}
        for name, kind in cls._COLUMNS:
            array = data[name]
            if array.ndim != 1:
                raise TraceError(
                    f"{path!r}: column {name!r} must be 1-D, got shape "
                    f"{array.shape}"
                )
            allowed = ("i", "u") if kind == "i" else ("b",)
            if array.dtype.kind not in allowed:
                raise TraceError(
                    f"{path!r}: column {name!r} has dtype {array.dtype}, "
                    f"expected kind in {allowed}"
                )
            arrays[name] = array
            lengths[name] = len(array)
        if len(set(lengths.values())) != 1:
            raise TraceError(
                f"{path!r}: column lengths disagree: {lengths}"
            )
        kinds = arrays["kind"]
        valid = {int(k) for k in BranchKind}
        if len(kinds) and not np.isin(kinds, sorted(valid)).all():
            bad = sorted(set(np.unique(kinds).tolist()) - valid)
            raise TraceError(
                f"{path!r}: column 'kind' holds values {bad} outside "
                f"BranchKind {sorted(valid)}"
            )
        return cls(arrays["pc"], arrays["ninstr"], arrays["kind"],
                   arrays["taken"], arrays["target"], generated)
