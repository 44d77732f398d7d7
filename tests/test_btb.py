"""Unit tests for the conventional BTB and generic table machinery."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.isa import BranchKind
from repro.uarch.btb import (
    EMPTY_SET,
    BTBEntry,
    BTBPrefetchBuffer,
    ConventionalBTB,
    SetAssocTable,
)


class TestSetAssocTable:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            SetAssocTable(entries=10, assoc=4)
        with pytest.raises(ConfigError):
            SetAssocTable(entries=0, assoc=4)

    def test_lookup_miss_returns_none(self):
        table = SetAssocTable(entries=16, assoc=4)
        assert table.lookup(0x1000) is None

    def test_insert_lookup(self):
        table = SetAssocTable(entries=16, assoc=4)
        table.insert(0x1000, "payload")
        assert table.lookup(0x1000) == "payload"

    def test_lru_within_set(self):
        table = SetAssocTable(entries=2, assoc=2)  # 1 set
        table.insert(0x0, "a")
        table.insert(0x4, "b")
        table.lookup(0x0)
        table.insert(0x8, "c")  # evicts 0x4
        assert table.lookup(0x4) is None
        assert table.lookup(0x0) == "a"

    def test_peek_does_not_count(self):
        table = SetAssocTable(entries=16, assoc=4)
        table.insert(0x1000, "x")
        table.peek(0x1000)
        assert table.lookups == 0

    def test_hit_rate(self):
        table = SetAssocTable(entries=16, assoc=4)
        table.insert(0x1000, "x")
        table.lookup(0x1000)
        table.lookup(0x2000)
        assert table.hit_rate == pytest.approx(0.5)

    def test_replace_existing(self):
        table = SetAssocTable(entries=16, assoc=4)
        table.insert(0x1000, "old")
        table.insert(0x1000, "new")
        assert table.lookup(0x1000) == "new"
        assert table.occupancy() == 1

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, pcs):
        table = SetAssocTable(entries=8, assoc=2)
        for pc in pcs:
            table.insert(pc * 4, pc)
        assert table.occupancy() <= 8


class _EagerTable:
    """Reference table: every set an allocated OrderedDict from the start."""

    def __init__(self, entries, assoc):
        self.n_sets = entries // assoc
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(self.n_sets)]
        self.lookups = self.hit_count = 0

    def lookup(self, pc):
        table_set = self.sets[(pc >> 2) % self.n_sets]
        self.lookups += 1
        entry = table_set.get(pc)
        if entry is not None:
            table_set.move_to_end(pc)
            self.hit_count += 1
        return entry

    def peek(self, pc):
        return self.sets[(pc >> 2) % self.n_sets].get(pc)

    def insert(self, pc, entry):
        table_set = self.sets[(pc >> 2) % self.n_sets]
        if pc in table_set:
            table_set[pc] = entry
            table_set.move_to_end(pc)
            return
        if len(table_set) >= self.assoc:
            table_set.popitem(last=False)
        table_set[pc] = entry

    def occupancy(self):
        return sum(len(s) for s in self.sets)


class TestSetsAllocatedOnFirstInsert:
    """Tables whose sets are allocated on first insert behave exactly
    like eagerly allocated ones."""

    @pytest.mark.parametrize("entries,assoc", [(4, 4), (8, 2), (16, 4),
                                               (12, 3)])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eager_reference(self, entries, assoc, seed):
        rng = random.Random(seed)
        table = SetAssocTable(entries=entries, assoc=assoc)
        reference = _EagerTable(entries, assoc)
        for step in range(400):
            op = rng.choice(("lookup", "insert", "peek", "occupancy"))
            pc = rng.randrange(3 * entries) * 4
            if op == "insert":
                table.insert(pc, step)
                reference.insert(pc, step)
            elif op == "occupancy":
                assert table.occupancy() == reference.occupancy()
            else:
                assert getattr(table, op)(pc) == getattr(reference, op)(pc)
        assert (table.lookups, table.hit_count) \
            == (reference.lookups, reference.hit_count)
        assert [list(s.items()) for s in table._sets] \
            == [list(s.items()) for s in reference.sets]

    def test_new_table_shares_one_empty_set(self):
        table = SetAssocTable(entries=16384, assoc=4)
        assert all(s is EMPTY_SET for s in table._sets)
        table.insert(0x1000, "x")
        assert sum(s is EMPTY_SET for s in table._sets) == 4095
        assert len(EMPTY_SET) == 0
        with pytest.raises(TypeError):
            EMPTY_SET[0x2000] = "y"  # read-only: a missed check fails loudly


class TestConventionalBTB:
    def test_storage_follows_paper(self):
        btb = ConventionalBTB(entries=2048, assoc=4)
        assert btb.storage_bits() == 2048 * 93

    def test_insert_branch(self):
        btb = ConventionalBTB(entries=64, assoc=4)
        btb.insert_branch(0x1000, 5, BranchKind.CALL, 0x9000)
        entry = btb.lookup(0x1000)
        assert entry.kind == BranchKind.CALL
        assert entry.target == 0x9000
        assert entry.ninstr == 5


class TestBTBPrefetchBuffer:
    def test_take_removes_and_counts(self):
        buffer = BTBPrefetchBuffer(4)
        buffer.insert(0x1000, BTBEntry(4, BranchKind.COND, 0x2000))
        entry = buffer.take(0x1000)
        assert entry is not None and entry.target == 0x2000
        assert buffer.take(0x1000) is None
        assert buffer.hits == 1

    def test_fifo_capacity(self):
        buffer = BTBPrefetchBuffer(2)
        for i in range(3):
            buffer.insert(0x1000 + i * 16,
                          BTBEntry(4, BranchKind.COND, 0))
        assert buffer.take(0x1000) is None      # oldest evicted
        assert buffer.take(0x1010) is not None

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            BTBPrefetchBuffer(0)
