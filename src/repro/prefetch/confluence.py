"""Confluence: temporal-streaming unified front-end prefetching.

Kaynak, Grot & Falsafi's Confluence [10] records the L1-I access stream
(SHIFT [9] history, virtualised into the LLC) and replays it on a miss to
prefetch both instructions and — by predecoding arriving lines — BTB
entries.  Following the paper's methodology (Section 5.2), we model
Confluence as SHIFT plus a generous 16K-entry BTB.

The first-order costs the paper attributes to Confluence are modelled
explicitly:

* on every stream (re)start, the history metadata must be fetched from
  the LLC, so no prefetch is issued for one LLC round trip
  ("start-up delay", Section 6.1);
* a stream mismatch (the fetch stream departs from the recorded history)
  resets the prefetcher, incurring the start-up delay again.

Storage accounting mirrors Section 5.2: a 32K-entry history and an
8K-entry index table, virtualised into the LLC.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa import BranchKind, lines_touched
from repro.prefetch.base import LookupHit, MissPolicy, Scheme
from repro.uarch.btb import SetAssocTable
from repro.uarch.predecoder import Predecoder


@dataclass
class TimedBTBEntry:
    """Conventional BTB entry with a proactive-fill visibility time."""

    ninstr: int
    kind: BranchKind
    target: int
    valid_from: float = 0.0


class _StreamHistory:
    """SHIFT's circular history buffer plus index table.

    The history stores the deduplicated sequence of L1-I line addresses
    observed at retirement; the index maps a line address to its most
    recent history position so a miss can locate its successor stream.
    """

    def __init__(self, history_entries: int, index_entries: int) -> None:
        self.history_entries = history_entries
        self.index_entries = index_entries
        self._ring: List[int] = [0] * history_entries
        self._write_pos = 0  # monotonically increasing
        self._index: "OrderedDict[int, int]" = OrderedDict()
        self._last_line = -1

    def record(self, line: int) -> None:
        """Append a retired line (consecutive duplicates collapse)."""
        if line == self._last_line:
            return
        self._last_line = line
        self._ring[self._write_pos % self.history_entries] = line
        self._index[line] = self._write_pos
        self._index.move_to_end(line)
        if len(self._index) > self.index_entries:
            self._index.popitem(last=False)
        self._write_pos += 1

    def locate(self, line: int) -> Optional[int]:
        """History position of the most recent occurrence of *line*."""
        pos = self._index.get(line)
        if pos is None:
            return None
        if pos < self._write_pos - self.history_entries:
            return None  # overwritten since it was indexed
        return pos

    def read(self, pos: int) -> Optional[int]:
        """History content at *pos*, or None if out of range."""
        if pos < 0 or pos >= self._write_pos:
            return None
        if pos < self._write_pos - self.history_entries:
            return None
        return self._ring[pos % self.history_entries]


class ConfluenceScheme(Scheme):
    """SHIFT-based temporal streaming with a 16K-entry BTB."""

    name = "confluence"
    runahead = False
    miss_policy = MissPolicy.FLUSH_AT_EXECUTE

    def __init__(self, predecoder: Predecoder, btb_entries: int = 16384,
                 btb_assoc: int = 4, history_entries: int = 32 * 1024,
                 index_entries: int = 8 * 1024, lookahead: int = 12,
                 metadata_latency: float = 30.0,
                 predecode_latency: float = 3.0) -> None:
        self.btb: SetAssocTable[TimedBTBEntry] = SetAssocTable(
            entries=btb_entries, assoc=btb_assoc
        )
        self.predecoder = predecoder
        self.history = _StreamHistory(history_entries, index_entries)
        self.lookahead = lookahead
        self.metadata_latency = metadata_latency
        self.predecode_latency = predecode_latency
        # Active stream: next position to issue from, and the issue gate.
        self._stream_pos: Optional[int] = None
        self._metadata_ready = 0.0
        # Lines issued from the stream, mapped to their stream position.
        self._pending: Dict[int, int] = {}
        # Fetched lines since the last stream confirmation; when the
        # fetch sequence drifts off the replayed history for too long the
        # stream is dead and the next miss pays the metadata round trip.
        self._drift = 0
        self._drift_limit = lookahead
        self.stream_restarts = 0
        self.stream_hits = 0
        self.stream_kills = 0

    # -- BTB ------------------------------------------------------------

    def lookup(self, pc: int, now: float) -> Optional[LookupHit]:
        entry = self.btb.lookup(pc)
        if entry is None or entry.valid_from > now:
            return None
        return LookupHit(ninstr=entry.ninstr, kind=entry.kind,
                         target=entry.target, source="btb")

    def demand_fill(self, pc: int, ninstr: int, kind: BranchKind,
                    target: int, now: float) -> None:
        self.btb.insert(pc, TimedBTBEntry(ninstr=ninstr, kind=kind,
                                          target=target, valid_from=now))

    def on_prefetch_arrival(self, line: int, ready: float) -> None:
        """Predecode an arriving stream line into the BTB (unified fill)."""
        for block_pc, ninstr, kind, target \
                in self.predecoder.branches_in_line(line):
            existing = self.btb.peek(block_pc)
            if existing is not None and existing.valid_from <= ready:
                continue
            self.btb.insert(block_pc, TimedBTBEntry(
                ninstr=ninstr, kind=kind, target=target,
                valid_from=ready + self.predecode_latency,
            ))

    # -- temporal stream --------------------------------------------------

    def _top_up(self, now: float) -> List[Tuple[int, float]]:
        """Issue stream lines until the lookahead window is full."""
        requests: List[Tuple[int, float]] = []
        earliest = max(now, self._metadata_ready)
        while self._stream_pos is not None and len(self._pending) < self.lookahead:
            line = self.history.read(self._stream_pos)
            if line is None:
                self._stream_pos = None  # ran off the recorded history
                break
            if line not in self._pending:
                self._pending[line] = self._stream_pos
                requests.append((line, earliest))
            self._stream_pos += 1
        return requests

    def on_fetch_line(self, line: int, l1i_hit: bool,
                      now: float) -> List[Tuple[int, float]]:
        if line in self._pending:
            # The fetch stream confirmed the replayed history: drop every
            # pending line at or before the match and extend the window.
            matched_pos = self._pending[line]
            self._pending = {
                pending: pos for pending, pos in self._pending.items()
                if pos > matched_pos
            }
            self.stream_hits += 1
            self._drift = 0
            return self._top_up(now)
        if self._stream_pos is not None or self._pending:
            self._drift += 1
            if self._drift > self._drift_limit:
                # The access sequence departed from the recorded history:
                # the stream is stale (Confluence's "misprediction in the
                # L1-I access sequence", Section 6.1).
                self._pending.clear()
                self._stream_pos = None
                self._drift = 0
                self.stream_kills += 1
        if l1i_hit:
            return []
        # Demand miss off-stream: reset and pay the metadata round trip.
        self._pending.clear()
        self.stream_restarts += 1
        pos = self.history.locate(line)
        if pos is None:
            self._stream_pos = None
            return []
        self._stream_pos = pos + 1
        self._metadata_ready = now + self.metadata_latency
        return self._top_up(now)

    # -- retirement --------------------------------------------------------

    def on_retire(self, pc: int, ninstr: int, kind: BranchKind, taken: bool,
                  target: int, now: float) -> None:
        for line in lines_touched(pc, ninstr):
            self.history.record(line)

    # -- accounting ----------------------------------------------------------

    def storage_bits(self) -> int:
        """History + index metadata (virtualised into the LLC) + BTB.

        The paper quotes ~204KB of history per workload and ~240KB of LLC
        tag extension for the index; we account the structural bits here
        (history entries of ~42-bit line addresses, index entries of
        ~42+15 bits, 16K BTB entries of 93 bits).
        """
        history_bits = self.history.history_entries * 42
        index_bits = self.history.index_entries * (42 + 15)
        btb_bits = self.btb.entries * 93
        return history_bits + index_bits + btb_bits
