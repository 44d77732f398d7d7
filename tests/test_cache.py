"""Unit tests for caches and the prefetch buffer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.uarch.cache import PrefetchBuffer, SetAssocCache


class TestSetAssocCache:
    def test_geometry(self):
        cache = SetAssocCache(32 * 1024, 2, 64)
        assert cache.n_sets == 256

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            SetAssocCache(0, 2, 64)
        with pytest.raises(ConfigError):
            SetAssocCache(100, 3, 64)  # not divisible

    def test_miss_then_hit(self):
        cache = SetAssocCache(1024, 2, 64)
        assert not cache.lookup(5)
        cache.insert(5)
        assert cache.lookup(5)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_within_set(self):
        cache = SetAssocCache(2 * 64, 2, 64)  # 1 set, 2 ways
        cache.insert(0)
        cache.insert(1)
        cache.lookup(0)          # 0 is now MRU
        victim = cache.insert(2)
        assert victim == 1       # LRU evicted

    def test_contains_does_not_touch_lru(self):
        cache = SetAssocCache(2 * 64, 2, 64)
        cache.insert(0)
        cache.insert(1)
        cache.contains(0)        # must NOT promote 0
        victim = cache.insert(2)
        assert victim == 0

    def test_insert_existing_refreshes(self):
        cache = SetAssocCache(2 * 64, 2, 64)
        cache.insert(0)
        cache.insert(1)
        cache.insert(0)          # refresh 0
        victim = cache.insert(2)
        assert victim == 1

    def test_invalidate(self):
        cache = SetAssocCache(1024, 2, 64)
        cache.insert(7)
        assert cache.invalidate(7)
        assert not cache.invalidate(7)
        assert not cache.contains(7)

    def test_occupancy(self):
        cache = SetAssocCache(1024, 2, 64)
        for line in range(10):
            cache.insert(line)
        assert cache.occupancy() == 10

    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_lru_model(self, accesses):
        """Single-set cache behaves exactly like a reference LRU list."""
        cache = SetAssocCache(4 * 64, 4, 64)  # 1 set, 4 ways
        reference = []
        for line in accesses:
            hit = cache.lookup(line)
            assert hit == (line in reference)
            if hit:
                reference.remove(line)
                reference.append(line)
            else:
                cache.insert(line)
                if len(reference) == 4:
                    reference.pop(0)
                reference.append(line)


class _EagerCache:
    """Reference LRU cache: every set an allocated dict from the start."""

    def __init__(self, n_sets, assoc):
        self.sets = [{} for _ in range(n_sets)]
        self.assoc = assoc
        self.mask = n_sets - 1
        self.hits = self.misses = 0

    def lookup(self, line):
        cache_set = self.sets[line & self.mask]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line):
        cache_set = self.sets[line & self.mask]
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

    def probe_insert(self, line):
        hit = line in self.sets[line & self.mask]
        self.insert(line)
        return hit

    def invalidate(self, line):
        return self.sets[line & self.mask].pop(line, 0) is None

    def contains(self, line):
        return line in self.sets[line & self.mask]

    def occupancy(self):
        return sum(len(s) for s in self.sets)

    def state(self):
        return [list(s) for s in self.sets]


_OPS = ("lookup", "insert", "probe_insert", "invalidate", "contains",
        "occupancy")


def _replay(cache, reference, rng, n_ops, max_line):
    for _ in range(n_ops):
        op = rng.choice(_OPS)
        if op == "occupancy":
            assert cache.occupancy() == reference.occupancy()
            continue
        line = rng.randrange(max_line)
        assert getattr(cache, op)(line) == getattr(reference, op)(line), op
    assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
    assert [list(s) for s in cache.snapshot()] == reference.state()


class TestSetsAllocatedOnFirstInsert:
    """Sets allocated on first write, and caches restored from a shared
    snapshot, behave exactly like eagerly allocated dict sets."""

    @pytest.mark.parametrize("capacity,assoc", [
        (64, 1), (4 * 64, 2), (8 * 64, 4), (16 * 64, 2)])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eager_reference(self, capacity, assoc, seed):
        cache = SetAssocCache(capacity, assoc, 64)
        reference = _EagerCache(cache.n_sets, assoc)
        # Few more distinct lines than ways: evictions in every set.
        _replay(cache, reference, random.Random(seed), 400,
                3 * cache.n_sets * assoc)

    def test_new_cache_shares_one_empty_set(self):
        cache = SetAssocCache(8 * 1024 * 1024, 16, 64)
        assert cache.n_sets == 8192
        empty = cache._sets[0]
        assert empty == () and all(s is empty for s in cache._sets)
        cache.insert(5)
        assert type(cache._sets[5]) is dict
        assert sum(s is empty for s in cache._sets) == 8191

    @pytest.mark.parametrize("seed", range(6))
    def test_restored_cache_matches_reference(self, seed):
        rng = random.Random(seed)
        warm = SetAssocCache(8 * 64, 4, 64)
        reference = _EagerCache(warm.n_sets, 4)
        for _ in range(40):
            line = rng.randrange(48)
            warm.insert(line)
            reference.insert(line)
        state = warm.snapshot()
        frozen = [list(s) for s in state]
        assert all(type(s) is tuple for s in state)
        for _ in range(3):  # several caches share one snapshot
            cache = SetAssocCache(8 * 64, 4, 64)
            cache.restore(state)
            twin = _EagerCache(cache.n_sets, 4)
            twin.sets = [dict.fromkeys(s) for s in frozen]
            _replay(cache, twin, rng, 300, 48)
        assert [list(s) for s in state] == frozen

    def test_restore_rejects_other_geometry(self):
        state = SetAssocCache(8 * 64, 4, 64).snapshot()
        with pytest.raises(ConfigError):
            SetAssocCache(16 * 64, 4, 64).restore(state)


class TestPrefetchBuffer:
    def test_fifo_eviction(self):
        buffer = PrefetchBuffer(2)
        buffer.insert(1)
        buffer.insert(2)
        buffer.insert(3)
        assert 1 not in buffer
        assert 2 in buffer and 3 in buffer
        assert buffer.evicted_unused == 1

    def test_consume_removes(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(1)
        assert buffer.consume(1)
        assert not buffer.consume(1)
        assert len(buffer) == 0

    def test_reinsert_moves_to_back(self):
        buffer = PrefetchBuffer(2)
        buffer.insert(1)
        buffer.insert(2)
        buffer.insert(1)  # refresh
        buffer.insert(3)  # evicts 2, not 1
        assert 1 in buffer and 2 not in buffer

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            PrefetchBuffer(0)
