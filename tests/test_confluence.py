"""Unit tests for the Confluence temporal-streaming scheme."""

import pytest

from repro.isa import BranchKind
from repro.prefetch.confluence import ConfluenceScheme, _StreamHistory
from repro.uarch.predecoder import Predecoder


@pytest.fixture
def scheme(tiny_generated):
    return ConfluenceScheme(
        predecoder=Predecoder(tiny_generated.program.image),
        btb_entries=1024, history_entries=256, index_entries=64,
        lookahead=4, metadata_latency=60.0,
    )


class TestStreamHistory:
    def test_record_and_locate(self):
        history = _StreamHistory(16, 8)
        for line in (1, 2, 3):
            history.record(line)
        assert history.locate(2) == 1
        assert history.read(2) == 3

    def test_consecutive_duplicates_collapse(self):
        history = _StreamHistory(16, 8)
        for line in (1, 1, 1, 2):
            history.record(line)
        assert history.locate(2) == 1

    def test_index_lru_capacity(self):
        history = _StreamHistory(64, 4)
        for line in range(10):
            history.record(line)
        assert history.locate(0) is None   # evicted from the index
        assert history.locate(9) is not None

    def test_overwritten_history_not_located(self):
        history = _StreamHistory(4, 64)
        for line in range(10):
            history.record(line)
        assert history.locate(1) is None   # ring overwrote it
        assert history.read(0) is None

    def test_read_out_of_range(self):
        history = _StreamHistory(8, 8)
        history.record(1)
        assert history.read(5) is None
        assert history.read(-1) is None


class TestStreaming:
    def _record_stream(self, scheme, lines):
        for line in lines:
            scheme.history.record(line)

    def test_miss_triggers_replay_after_metadata_latency(self, scheme):
        self._record_stream(scheme, [10, 11, 12, 13, 14, 15])
        requests = scheme.on_fetch_line(10, l1i_hit=False, now=100.0)
        assert requests, "a recorded miss must start a stream"
        lines = [line for line, _ in requests]
        assert lines == [11, 12, 13, 14]  # lookahead window
        for _, earliest in requests:
            assert earliest == pytest.approx(160.0)  # now + metadata
        assert scheme.stream_restarts == 1

    def test_unrecorded_miss_cannot_stream(self, scheme):
        assert scheme.on_fetch_line(999, l1i_hit=False, now=0.0) == []

    def test_stream_confirmation_extends_window(self, scheme):
        self._record_stream(scheme, list(range(10, 20)))
        scheme.on_fetch_line(10, l1i_hit=False, now=0.0)
        follow_up = scheme.on_fetch_line(11, l1i_hit=True, now=10.0)
        assert [line for line, _ in follow_up] == [15]
        assert scheme.stream_hits == 1

    def test_drift_kills_stream(self, scheme):
        self._record_stream(scheme, list(range(10, 20)))
        scheme.on_fetch_line(10, l1i_hit=False, now=0.0)
        # Fetch wanders off the recorded history for > drift_limit lines.
        for i in range(scheme._drift_limit + 1):
            scheme.on_fetch_line(500 + i, l1i_hit=True, now=20.0 + i)
        assert scheme.stream_kills == 1
        # The next miss restarts (and pays the metadata latency again).
        scheme.on_fetch_line(12, l1i_hit=False, now=50.0)
        assert scheme.stream_restarts == 2

    def test_on_retire_records_lines(self, scheme):
        scheme.on_retire(0x1000, 4, BranchKind.COND, False, 0x1010, 0.0)
        assert scheme.history.locate(0x1000 >> 6) is not None


class TestConfluenceBTB:
    def test_demand_fill_visible_immediately(self, scheme):
        scheme.demand_fill(0x1000, 4, BranchKind.CALL, 0x9000, 5.0)
        assert scheme.lookup(0x1000, 5.0) is not None

    def test_prefill_gated_by_arrival(self, scheme, tiny_generated):
        line, branches = next(iter(tiny_generated.program.image.items()))
        victim = branches[0][0]
        scheme.on_prefetch_arrival(line, ready=100.0)
        assert scheme.lookup(victim, 50.0) is None
        assert scheme.lookup(
            victim, 100.0 + scheme.predecode_latency
        ) is not None

    def test_storage_accounts_history_and_index(self, scheme):
        assert scheme.storage_bits() > 1024 * 93  # more than the BTB alone
