"""Tests for the sweep/result-cache layer and the parallel grid runner."""

import pytest

from repro.config import SchemeConfig
from repro.core import diskcache
from repro.core.sweep import clear_result_cache, run_spec, run_specs, \
    simulation_meter
from repro.experiments.spec import RunSpec
from repro.obs.metrics import counter, delta, snapshot


def _cell(scheme: str, **kwargs) -> RunSpec:
    return RunSpec(workload="nutch", scheme=scheme, n_blocks=3000, **kwargs)


class TestSimulationMeter:
    def test_counts_misses_not_cache_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        spec = RunSpec(workload="nutch", scheme="baseline", n_blocks=2000)
        with simulation_meter() as meter:
            run_specs([spec], backend="serial")
            assert meter.count == 1
            run_specs([spec], backend="serial")  # memo hit
            assert meter.count == 1
        clear_result_cache()
        with simulation_meter() as meter:
            run_specs([spec], backend="serial")  # disk-cache hit
            assert meter.count == 0

    def test_parallel_dispatch_counts_in_the_parent(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=2000)
                 for scheme in ("baseline", "ideal")]
        with simulation_meter() as meter:
            run_specs(specs, backend="process", max_workers=2)
        assert meter.count == 2
        clear_result_cache()


class TestDiskProbe:
    def test_inline_cells_key_and_probe_the_disk_cache_once(
            self, tmp_path, monkeypatch):
        """run_specs hands the key of its missed probe to the cells it
        runs itself: one key and one load per cell, and the results
        land under that key."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        keyed = []
        spec_key = diskcache.spec_key
        monkeypatch.setattr(diskcache, "spec_key",
                            lambda spec: keyed.append(spec)
                            or spec_key(spec))
        misses, stores = counter("cache.misses"), counter("cache.stores")
        before = misses.value, stores.value
        specs = [_cell("baseline"), _cell("ideal")]
        with simulation_meter() as meter:
            run_specs(specs, backend="serial")
        assert meter.count == 2
        assert keyed == [spec.canonical() for spec in specs]
        assert (misses.value - before[0], stores.value - before[1]) \
            == (2, 2)
        clear_result_cache()
        with simulation_meter() as meter:
            run_specs(specs, backend="serial")
        assert meter.count == 0
        clear_result_cache()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_cells_store_under_the_key_their_unit_carries(
            self, backend, tmp_path, monkeypatch):
        """A dispatched unit carries each cell's disk key: the worker
        stores under it and neither keys nor probes again — one key
        build, one load and one store per cell, wherever it runs.  The
        counts are metrics, so process workers ship theirs home."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        spec_key, load = diskcache.spec_key, diskcache.load
        monkeypatch.setattr(diskcache, "spec_key",
                            lambda spec: counter("test.spec_keys").inc()
                            or spec_key(spec))
        monkeypatch.setattr(diskcache, "load",
                            lambda key: counter("test.loads").inc()
                            or load(key))
        specs = [RunSpec(workload=workload, scheme=scheme, n_blocks=2000)
                 for workload in ("nutch", "streaming")
                 for scheme in ("baseline", "ideal")]
        before = snapshot()
        with simulation_meter() as meter:
            run_specs(specs, backend=backend, max_workers=2)
        counters = delta(before, snapshot())["counters"]
        assert meter.count == len(specs)
        assert (counters.get("test.spec_keys"), counters.get("test.loads"),
                counters.get("cache.stores")) == (4, 4, 4)
        clear_result_cache()
        with simulation_meter() as meter:
            run_specs(specs, backend=backend, max_workers=2)
        assert meter.count == 0
        clear_result_cache()


class TestRunSpec:
    def test_cache_hit_returns_same_result(self):
        clear_result_cache()
        assert run_spec(_cell("baseline")) is run_spec(_cell("baseline"))

    def test_cache_respects_config(self):
        clear_result_cache()
        small = run_spec(_cell("boomerang", config=SchemeConfig(
            name="boomerang", btb_entries=512)))
        large = run_spec(_cell("boomerang", config=SchemeConfig(
            name="boomerang", btb_entries=4096)))
        assert small is not large

    def test_cache_bypass(self):
        clear_result_cache()
        first = run_spec(_cell("baseline"))
        fresh = run_spec(_cell("baseline"), use_cache=False)
        assert fresh is not first
        assert fresh.cycles == first.cycles  # still deterministic


class TestRunSpecs:
    WORKLOADS = ("nutch", "streaming")
    SCHEMES = ("baseline", "shotgun")

    def _grid(self):
        return [RunSpec(workload=workload, scheme=scheme, n_blocks=3000)
                for workload in self.WORKLOADS for scheme in self.SCHEMES]

    def test_returns_every_canonical_cell(self):
        clear_result_cache()
        results = run_specs([_cell("baseline"), _cell("ideal"),
                             _cell("baseline")], backend="serial")
        assert set(results) == {_cell("baseline").canonical(),
                                _cell("ideal").canonical()}
        assert results[_cell("ideal").canonical()].cycles \
            < results[_cell("baseline").canonical()].cycles

    def test_process_bit_identical_to_serial(self):
        clear_result_cache()
        diskcache.clear()
        serial = run_specs(self._grid(), backend="serial")
        clear_result_cache()
        diskcache.clear()
        parallel = run_specs(self._grid(), backend="process",
                             max_workers=2)
        assert set(parallel) == set(serial)
        for spec, result in serial.items():
            assert parallel[spec].stats == result.stats

    def test_collection_populates_memo_for_run_spec(self):
        clear_result_cache()
        results = run_specs([_cell("baseline")], backend="serial")
        assert run_spec(_cell("baseline")) \
            is results[_cell("baseline").canonical()]
