"""Tests for the persistent content-addressed result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import MicroarchParams, SchemeConfig
from repro.core import diskcache
from repro.core.exec import ExecutionPolicy
from repro.core.metrics import EngineStats, SimulationResult
from repro.core.sweep import clear_result_cache, run_spec
from repro.experiments.spec import RunSpec
from repro.obs.metrics import counter


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory private to one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    diskcache.reset_counters()
    clear_result_cache()
    yield tmp_path / "cache"
    clear_result_cache()


def _result(cycles: float = 123.5) -> SimulationResult:
    stats = EngineStats(cycles=cycles, instructions=1000, blocks=100,
                        stall_l1i=7.25, dir_mispredicts=3)
    return SimulationResult(scheme="shotgun", stats=stats)


def _key(**overrides) -> str:
    material = dict(workload="nutch", scheme_name="shotgun",
                    n_blocks=3000, seed=0,
                    config=SchemeConfig(name="shotgun"),
                    params=MicroarchParams())
    material.update(overrides)
    return diskcache.result_key(**material)


class TestStoreLoad:
    def test_round_trip_equality(self, fresh_cache):
        key = _key()
        stored = _result()
        diskcache.store(key, stored)
        loaded = diskcache.load(key)
        assert loaded is not None
        assert loaded.scheme == stored.scheme
        # Field-exact, including float bit patterns through JSON.
        assert loaded.stats == stored.stats

    def test_entry_is_one_canonical_serialisation(self, fresh_cache):
        """An entry is the sorted payload with its checksum appended,
        as long as the old insertion-order layout, and loads back."""
        key = _key()
        result = _result()
        diskcache.store(key, result)
        with open(diskcache.entry_path(key), encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
        assert list(payload) == ["engine_version", "scheme", "stats",
                                 "checksum"]
        assert payload["checksum"] == diskcache._payload_checksum(payload)
        legacy = {name: payload[name]
                  for name in ("engine_version", "scheme", "stats")}
        legacy["stats"] = {name: payload["stats"][name]
                           for name in EngineStats.__dataclass_fields__}
        legacy["checksum"] = payload["checksum"]
        assert len(json.dumps(legacy)) == len(text)
        assert diskcache.load(key) == result
        assert diskcache.verify_entry(key)

    def test_entry_bytes_equal_the_asdict_serialisation(self, fresh_cache):
        """The stats member is read field by field, byte-identical to
        serialising ``dataclasses.asdict``."""
        import dataclasses
        import hashlib
        key = _key()
        result = _result(cycles=0.1 + 0.2)
        diskcache.store(key, result)
        text = json.dumps({"engine_version": diskcache.ENGINE_VERSION,
                           "scheme": result.scheme,
                           "stats": dataclasses.asdict(result.stats)},
                          sort_keys=True)
        checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with open(diskcache.entry_path(key), encoding="utf-8") as handle:
            assert handle.read() \
                == f'{text[:-1]}, "checksum": "{checksum}"}}'

    def test_shard_made_once_and_again_after_a_prune(self, fresh_cache,
                                                     monkeypatch):
        import shutil
        made = []
        makedirs = os.makedirs
        monkeypatch.setattr(diskcache.os, "makedirs",
                            lambda *a, **k: made.append(a[0])
                            or makedirs(*a, **k))
        first = _key()
        second = next(key for key in (_key(n_blocks=n)
                                      for n in range(1000, 9000))
                      if key[:2] == first[:2] and key != first)
        shard = os.path.dirname(diskcache.entry_path(first))
        diskcache.store(first, _result())
        diskcache.store(first, _result(cycles=5.0))
        assert made.count(shard) == 1
        # A concurrent prune removed the shard: the next store makes it.
        shutil.rmtree(shard)
        diskcache.store(second, _result())
        assert made.count(shard) == 2
        assert diskcache.load(second) == _result()
        assert counter("cache.stores").value == 3

    def test_concurrent_stores_into_new_shards(self, fresh_cache):
        """Threads racing to make the same shards all land their
        entries (more threads than cores, short switch interval)."""
        import sys
        import threading
        keys = [_key(n_blocks=1000 + n) for n in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda part=part: [
                diskcache.store(key, _result()) for key in keys[part::8]])
                for part in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(diskcache.load(key) == _result() for key in keys)

    def test_miss_returns_none(self, fresh_cache):
        assert diskcache.load(_key()) is None
        assert counter("cache.misses").value == 1

    def test_corrupt_entry_is_a_miss(self, fresh_cache):
        key = _key()
        diskcache.store(key, _result())
        path = os.path.join(diskcache.cache_dir(), key[:2], key + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert diskcache.load(key) is None

    def test_stale_stats_layout_is_a_miss(self, fresh_cache):
        key = _key()
        diskcache.store(key, _result())
        path = os.path.join(diskcache.cache_dir(), key[:2], key + ".json")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["stats"].pop("cycles")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert diskcache.load(key) is None

    def test_clear_removes_entries(self, fresh_cache):
        keys = [_key(), _key(n_blocks=6000)]
        for key in keys:
            diskcache.store(key, _result())
        assert diskcache.clear() == 2
        assert all(diskcache.load(key) is None for key in keys)


class TestKeySensitivity:
    def test_stable_for_identical_inputs(self):
        assert _key() == _key()

    def test_config_changes_key(self):
        assert _key() != _key(
            config=SchemeConfig(name="shotgun", footprint_bits=32)
        )

    def test_params_change_key(self):
        assert _key() != _key(
            params=MicroarchParams().with_overrides(ftq_size=16)
        )

    def test_seed_changes_key(self):
        assert _key() != _key(seed=7)

    def test_blocks_change_key(self):
        assert _key() != _key(n_blocks=6000)

    def test_workload_and_scheme_change_key(self):
        assert _key() != _key(workload="oracle")
        assert _key() != _key(scheme_name="fdip")

    def test_engine_version_changes_key(self, monkeypatch):
        before = _key()
        monkeypatch.setattr(diskcache, "ENGINE_VERSION",
                            diskcache.ENGINE_VERSION + 1)
        assert _key() != before

    @pytest.mark.parametrize("cell, expected", [
        (("nutch", "shotgun", 16000, 1001),
         "f9729848996077bd67cba30b3352cada1eee4b0fc086d7901ff3ac172558b8f5"),
        (("oracle", "baseline", 120000, 0),
         "9d3c1953d77449f9666866a6cb535845fee6ab3bcf1b12bd8c2e6459c2107ad1"),
        (("nosuch", "fdip", 5, 3),
         "dadf194b9611d2cc6138af5bb08c828018e8e4d90edaee4ef08af7569f1ff29c"),
    ])
    def test_pinned_keys(self, monkeypatch, cell, expected):
        """Keys written before the key material was memoised still
        address their entries (a fixed fingerprint stands in for the
        source hash, which every edit changes)."""
        monkeypatch.setattr(diskcache, "_fingerprint_cache",
                            "pinned-fingerprint")
        workload, scheme, n_blocks, seed = cell
        spec = RunSpec(workload=workload, scheme=scheme, n_blocks=n_blocks,
                       seed=seed)
        assert diskcache.spec_key(spec) == expected
        assert diskcache.spec_key(spec) == expected  # memoised

    def test_source_fingerprint_changes_key(self, monkeypatch):
        # Simulates editing engine source: a different fingerprint must
        # invalidate every existing entry without a manual version bump.
        before = _key()
        monkeypatch.setattr(diskcache, "_fingerprint_cache", "edited-build")
        assert _key() != before

    def test_fingerprint_is_stable_within_a_build(self):
        assert diskcache.engine_fingerprint() \
            == diskcache.engine_fingerprint()
        assert diskcache.engine_fingerprint() != "unreadable"

    def test_exclusion_list_is_fingerprint_material(self, monkeypatch):
        # Moving a subtree into or out of _FINGERPRINT_EXCLUDE must
        # change the fingerprint (and thus invalidate cache entries),
        # even when the set of hashed files happens to stay identical.
        baseline = diskcache.engine_fingerprint()
        monkeypatch.setattr(diskcache, "_fingerprint_cache", None)
        monkeypatch.setattr(
            diskcache, "_FINGERPRINT_EXCLUDE",
            diskcache._FINGERPRINT_EXCLUDE + ("no_such_subtree",))
        altered = diskcache.engine_fingerprint()
        assert altered != baseline
        # Recompute under the original tuple: bit-stable again.
        monkeypatch.setattr(diskcache, "_fingerprint_cache", None)
        monkeypatch.setattr(
            diskcache, "_FINGERPRINT_EXCLUDE",
            tuple(e for e in diskcache._FINGERPRINT_EXCLUDE
                  if e != "no_such_subtree"))
        assert diskcache.engine_fingerprint() == baseline


class TestOptOut:
    def test_disable_env(self, fresh_cache, monkeypatch):
        """``REPRO_DISK_CACHE=0`` turns the policy's disk cache off: a
        cell neither probes nor stores, and no directory appears."""
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not ExecutionPolicy().resolved().disk_cache
        run_spec(_NUTCH)
        assert counter("cache.misses").value == 0
        assert counter("cache.stores").value == 0
        assert not os.path.isdir(str(fresh_cache))

    def test_cache_dir_override(self, fresh_cache):
        assert diskcache.cache_dir() == str(fresh_cache)


#: The cell the run_spec integration tests simulate.
_NUTCH = RunSpec(workload="nutch", scheme="baseline", n_blocks=2000)


class TestRunSpecIntegration:
    def test_disk_hit_equals_simulated_result(self, fresh_cache):
        first = run_spec(_NUTCH)
        assert counter("cache.stores").value == 1
        # Drop the in-process memo: the next call must come from disk
        # and be field-identical to the simulated result.
        clear_result_cache()
        second = run_spec(_NUTCH)
        assert counter("cache.hits").value == 1
        assert second is not first
        assert second.stats == first.stats

    def test_use_cache_false_skips_disk(self, fresh_cache):
        run_spec(_NUTCH, use_cache=False)
        assert counter("cache.stores").value == 0
        assert counter("cache.hits").value == 0
