"""Conventional basic-block-oriented BTB and the BTB prefetch buffer.

The BTB follows Yeh & Patt's basic-block orientation (paper Section 4.2.1):
entries are tagged by the *basic-block start address* and describe the
block's terminating branch (size, kind, target, direction hint).  Both
Boomerang's single BTB and Shotgun's three structures reuse the generic
set-associative table here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Generic, List, Mapping, Optional, TypeVar, Union

from repro.config.schemes import CONVENTIONAL_ENTRY_BITS
from repro.errors import ConfigError
from repro.isa import BranchKind

E = TypeVar("E")

#: The read-only empty set every :class:`SetAssocTable` set starts as.
#: Writers replace it with an owned ``OrderedDict`` on first insert, so
#: building a table costs O(1) in its set count.
EMPTY_SET: Mapping = MappingProxyType({})


class SetAssocTable(Generic[E]):
    """Generic set-associative, LRU table keyed by block start address.

    The index is derived from the block address in instruction-word
    granularity so that consecutive blocks spread across sets.  Sets are
    allocated on first insert: until then a set is the shared read-only
    :data:`EMPTY_SET`, which no lookup can hit.  Code that writes into
    ``_sets`` directly must make the same first-insert check.
    """

    __slots__ = ("entries", "assoc", "n_sets", "_sets", "lookups",
                 "hit_count")

    def __init__(self, entries: int, assoc: int = 4) -> None:
        if entries <= 0 or assoc <= 0:
            raise ConfigError("table entries/assoc must be positive")
        if entries % assoc:
            raise ConfigError(
                f"{entries} entries not divisible into {assoc} ways"
            )
        self.entries = entries
        self.assoc = assoc
        self.n_sets = entries // assoc
        self._sets: List[Union["OrderedDict[int, E]", Mapping]] = \
            [EMPTY_SET] * self.n_sets
        self.lookups = 0
        self.hit_count = 0

    def lookup(self, pc: int) -> Optional[E]:
        """Return the entry for block *pc*, updating LRU, or None."""
        table_set = self._sets[(pc >> 2) % self.n_sets]
        self.lookups += 1
        entry = table_set.get(pc)
        if entry is not None:
            table_set.move_to_end(pc)
            self.hit_count += 1
        return entry

    def peek(self, pc: int) -> Optional[E]:
        """Probe without disturbing LRU or counters."""
        return self._sets[(pc >> 2) % self.n_sets].get(pc)

    def insert(self, pc: int, entry: E) -> None:
        """Install or replace the entry for block *pc* (LRU victim)."""
        index = (pc >> 2) % self.n_sets
        table_set = self._sets[index]
        if table_set is EMPTY_SET:
            table_set = self._sets[index] = OrderedDict()
        if pc in table_set:
            table_set[pc] = entry
            table_set.move_to_end(pc)
            return
        if len(table_set) >= self.assoc:
            table_set.popitem(last=False)
        table_set[pc] = entry

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def geometry(self) -> tuple:
        """``(entries, assoc)`` — enough to build an identical empty
        table (the columnar engine's clock-free replay does exactly
        that)."""
        return (self.entries, self.assoc)

    @property
    def hit_rate(self) -> float:
        return self.hit_count / self.lookups if self.lookups else 0.0


@dataclass(slots=True)
class BTBEntry:
    """A conventional BTB entry (Section 5.2 field layout).

    ``direction`` is the 2-bit hysteresis hint stored alongside the entry;
    the real direction decision comes from the TAGE predictor, so the hint
    is informational in this model.
    """

    ninstr: int
    kind: BranchKind
    target: int
    direction: int = 2


class ConventionalBTB(SetAssocTable[BTBEntry]):
    """The baseline/Boomerang 2K-entry basic-block BTB."""

    __slots__ = ()

    def insert_branch(self, pc: int, ninstr: int, kind: BranchKind,
                      target: int) -> None:
        """Install a branch described by its raw fields."""
        self.insert(pc, BTBEntry(ninstr=ninstr, kind=kind, target=target))

    def storage_bits(self) -> int:
        """Total storage per the paper's 93-bit entry accounting."""
        return self.entries * CONVENTIONAL_ENTRY_BITS


class BTBPrefetchBuffer:
    """Boomerang's 32-entry BTB prefetch buffer (Section 4.2.3).

    Holds branches predecoded from a fetched line that were *not* the
    missing branch; a subsequent front-end hit moves the branch into the
    appropriate BTB.
    """

    __slots__ = ("entries", "_buffer", "hits")

    def __init__(self, entries: int = 32) -> None:
        if entries <= 0:
            raise ConfigError("BTB prefetch buffer needs >= 1 entry")
        self.entries = entries
        self._buffer: "OrderedDict[int, BTBEntry]" = OrderedDict()
        self.hits = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def insert(self, pc: int, entry: BTBEntry) -> None:
        if pc in self._buffer:
            self._buffer.move_to_end(pc)
            self._buffer[pc] = entry
            return
        if len(self._buffer) >= self.entries:
            self._buffer.popitem(last=False)
        self._buffer[pc] = entry

    def take(self, pc: int) -> Optional[BTBEntry]:
        """Remove and return the entry for *pc* if buffered."""
        entry = self._buffer.pop(pc, None)
        if entry is not None:
            self.hits += 1
        return entry
