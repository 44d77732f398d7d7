"""Set-associative caches and the L1-I prefetch buffer.

Caches are keyed by *line index* (byte address >> log2(line size)); the
caller performs the shift once.  LRU exploits the insertion-order
guarantee of Python dicts: a hit deletes and re-inserts the key (moving
it to the back), so the least-recently-used line is always the first
key and eviction is O(1) — measurably cheaper in the simulation hot
loop than the previous per-set access-stamp scan.

Sets are allocated on first write.  A new cache shares one read-only
empty set (the empty tuple) across all of its sets, so building it costs
O(1) in the set count; a cache restored from a snapshot shares the
snapshot's per-set tuples the same way.  A read-only set holds its lines
in LRU order, exactly as the dict it stands for, and becomes an owned
dict the first time the cache writes to it, so no write ever reaches
shared state (DESIGN.md Section 7.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError


class SetAssocCache:
    """A set-associative, LRU, line-granular cache.

    Args:
        capacity_bytes: total capacity.
        assoc: ways per set.
        line_bytes: line size (used only to derive the set count).
    """

    __slots__ = ("n_sets", "assoc", "_set_mask", "_sets", "hits", "misses")

    def __init__(self, capacity_bytes: int, assoc: int,
                 line_bytes: int = 64) -> None:
        if capacity_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError("cache parameters must be positive")
        lines = capacity_bytes // line_bytes
        if lines % assoc:
            raise ConfigError(
                f"capacity {capacity_bytes} not divisible into {assoc} ways"
            )
        self.n_sets = lines // assoc
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"set count must be a power of two, "
                              f"got {self.n_sets}")
        self.assoc = assoc
        self._set_mask = self.n_sets - 1
        # Per set: {line_index: None}, ordered least- to most-recently
        # used, or a read-only tuple of the same lines in the same order
        # until the set is first written (see _own).
        self._sets: List[Union[Dict[int, None], tuple]] = \
            [()] * self.n_sets
        self.hits = 0
        self.misses = 0

    def _own(self, index: int) -> Dict[int, None]:
        """Replace read-only set *index* with an owned dict, same order."""
        cache_set = self._sets[index] = dict.fromkeys(self._sets[index])
        return cache_set

    def snapshot(self) -> Tuple[tuple, ...]:
        """The LRU state as one read-only tuple per set, LRU line first."""
        return tuple(map(tuple, self._sets))

    def restore(self, state: Tuple[tuple, ...]) -> None:
        """Start from *state* (a :meth:`snapshot` of an equal geometry).

        The tuples are shared, not copied: each set is copied into an
        owned dict only when this cache first writes to it, so one
        snapshot can seed any number of caches.
        """
        if len(state) != self.n_sets:
            raise ConfigError(f"snapshot has {len(state)} sets, cache has "
                              f"{self.n_sets}")
        self._sets = list(state)

    def lookup(self, line: int) -> bool:
        """Probe for *line*; updates LRU and hit/miss counters."""
        index = line & self._set_mask
        cache_set = self._sets[index]
        if line in cache_set:
            if cache_set.__class__ is tuple:
                cache_set = self._own(index)
            # Move to the back (most recently used).
            del cache_set[line]
            cache_set[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without disturbing LRU or counters."""
        return line in self._sets[line & self._set_mask]

    def insert(self, line: int) -> Optional[int]:
        """Install *line*; returns the evicted line index, if any."""
        index = line & self._set_mask
        cache_set = self._sets[index]
        if cache_set.__class__ is tuple:
            cache_set = self._own(index)
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim = next(iter(cache_set))
            del cache_set[victim]
        cache_set[line] = None
        return victim

    def probe_insert(self, line: int) -> bool:
        """Fused lookup-then-insert without hit/miss counter updates.

        Exactly the state transition of ``lookup(line)`` followed (on a
        miss) by ``insert(line)``: a hit refreshes LRU, a miss evicts
        the LRU way and installs the line.  Used by the columnar
        engine's clock-free replay passes, where the hit/miss *sequence*
        is the output and the counters are reconstructed from it.
        """
        index = line & self._set_mask
        cache_set = self._sets[index]
        if cache_set.__class__ is tuple:
            cache_set = self._own(index)
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return True
        if len(cache_set) >= self.assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = None
        return False

    def invalidate(self, line: int) -> bool:
        """Remove *line* if present; returns whether it was present."""
        index = line & self._set_mask
        cache_set = self._sets[index]
        if line in cache_set:
            if cache_set.__class__ is tuple:
                cache_set = self._own(index)
            del cache_set[line]
            return True
        return False

    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(s) for s in self._sets)


class PrefetchBuffer:
    """FIFO buffer holding prefetched lines until first demand use.

    Mirrors the paper's 64-entry L1-I prefetch buffer (Table 3):
    prefetched lines are staged here and promoted to the L1-I on first
    demand access, so useless prefetches never pollute the cache proper.
    """

    __slots__ = ("entries", "_lines", "evicted_unused")

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ConfigError("prefetch buffer needs at least one entry")
        self.entries = entries
        self._lines: "OrderedDict[int, bool]" = OrderedDict()
        self.evicted_unused = 0

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def insert(self, line: int) -> None:
        """Stage a prefetched line, evicting the oldest if full."""
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            return
        if len(lines) >= self.entries:
            _, used = lines.popitem(last=False)
            if not used:
                self.evicted_unused += 1
        lines[line] = False

    def consume(self, line: int) -> bool:
        """Demand-promote *line* out of the buffer; True if it was staged."""
        lines = self._lines
        if line in lines:
            del lines[line]
            return True
        return False
