"""Tests for the declarative RunSpec/GridSpec experiment layer."""

from __future__ import annotations

import pytest

from repro.config import MicroarchParams, SchemeConfig
from repro.core import diskcache
from repro.core.exec import ExecutionPolicy, scoped_policy
from repro.core.sweep import clear_result_cache, run_specs
from repro.errors import ExperimentError
from repro.experiments import colocation, figure7
from repro.experiments.spec import (
    Cell,
    GridSpec,
    RunSpec,
    run_grid_spec,
)
from repro.obs.metrics import counter


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private empty disk cache, serial execution, empty memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    diskcache.reset_counters()
    clear_result_cache()
    with scoped_policy(ExecutionPolicy(backend="serial")):
        yield
    clear_result_cache()


class TestRunSpecCanonicalisation:
    def test_defaults_are_filled(self):
        spec = RunSpec(workload="nutch", scheme="SHOTGUN").canonical(3000)
        assert spec.scheme == "shotgun"
        assert spec.config == SchemeConfig(name="shotgun")
        assert spec.params == MicroarchParams()
        assert spec.n_blocks == 3000

    def test_workload_case_is_normalised(self):
        upper = RunSpec(workload="DB2", scheme="shotgun").canonical(3000)
        lower = RunSpec(workload="db2", scheme="shotgun").canonical(3000)
        assert upper == lower
        assert upper.disk_key() == lower.disk_key()

    def test_canonical_is_idempotent(self):
        spec = RunSpec(workload="nutch", scheme="shotgun").canonical(3000)
        assert spec.canonical() == spec

    def test_equivalent_writings_canonicalise_equal(self):
        terse = RunSpec(workload="nutch", scheme="shotgun", n_blocks=3000)
        explicit = RunSpec(workload="nutch", scheme="shotgun",
                           config=SchemeConfig(name="shotgun"),
                           params=MicroarchParams(), n_blocks=3000)
        assert terse.canonical() == explicit.canonical()
        assert hash(terse.canonical()) == hash(explicit.canonical())

    def test_dict_round_trip(self):
        spec = RunSpec(
            workload="oracle", scheme="boomerang",
            config=SchemeConfig(name="boomerang", btb_entries=512),
            params=MicroarchParams().with_overrides(ftq_size=16),
            n_blocks=5000, seed=3,
        )
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt.canonical() == spec.canonical()

    def test_round_trip_preserves_shotgun_sizes(self):
        spec = RunSpec(
            workload="db2", scheme="shotgun",
            config=SchemeConfig(
                name="shotgun",
                shotgun_sizes=SchemeConfig().shotgun_sizes,
                footprint_bits=32,
            ),
            n_blocks=4000,
        )
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt.config.shotgun_sizes == spec.config.shotgun_sizes
        assert rebuilt.canonical() == spec.canonical()


class TestDiskKeyStability:
    def test_spec_key_matches_tuple_key(self):
        spec = RunSpec(workload="nutch", scheme="shotgun",
                       n_blocks=3000).canonical()
        assert spec.disk_key() == diskcache.result_key(
            "nutch", "shotgun", 3000, 0,
            SchemeConfig(name="shotgun"), MicroarchParams(),
        )

    def test_key_stable_across_calls(self):
        spec = RunSpec(workload="nutch", scheme="baseline", n_blocks=3000)
        assert spec.disk_key() == spec.disk_key()

    def test_equivalent_specs_share_keys(self):
        terse = RunSpec(workload="nutch", scheme="baseline", n_blocks=3000)
        explicit = RunSpec(workload="nutch", scheme="baseline",
                           config=SchemeConfig(name="baseline"),
                           params=MicroarchParams(), n_blocks=3000)
        assert terse.disk_key() == explicit.disk_key()

    def test_config_changes_key(self):
        default = RunSpec(workload="nutch", scheme="shotgun", n_blocks=3000)
        wide = RunSpec(workload="nutch", scheme="shotgun",
                       config=SchemeConfig(name="shotgun",
                                           footprint_bits=32),
                       n_blocks=3000)
        assert default.disk_key() != wide.disk_key()


class TestGridSpec:
    def test_figure7_round_trips(self):
        spec = figure7.SPEC
        rebuilt = GridSpec.from_dict(spec.to_dict())
        assert rebuilt.experiment_id == spec.experiment_id
        assert rebuilt.columns == spec.columns
        assert rebuilt.metric == spec.metric
        assert len(rebuilt.cells) == len(spec.cells)
        for ours, theirs in zip(spec.cells, rebuilt.cells):
            assert ours.spec.canonical(1000) == theirs.spec.canonical(1000)
            assert ours.baseline.canonical(1000) \
                == theirs.baseline.canonical(1000)

    def test_baselines_deduplicate(self):
        spec = figure7.SPEC
        # 6 workloads x (3 variants + 1 shared baseline) distinct sims.
        assert len(spec.run_specs(1000)) == 6 * 4

    def test_unknown_metric_rejected(self):
        with pytest.raises(ExperimentError):
            GridSpec(experiment_id="x", title="T", columns=("A",),
                     cells=(), metric="nope")

    def test_unknown_summary_rejected(self):
        with pytest.raises(ExperimentError):
            GridSpec(experiment_id="x", title="T", columns=("A",),
                     cells=(), metric="ipc", summary="median")

    def test_baseline_metric_without_baseline_cell_raises(self, fresh_cache):
        spec = GridSpec(
            experiment_id="x", title="T", columns=("A",),
            cells=(Cell(row="r", col="A",
                        spec=RunSpec(workload="nutch", scheme="ideal")),),
            metric="speedup",
        )
        with pytest.raises(ExperimentError):
            run_grid_spec(spec, n_blocks=2000)

    def test_missing_cell_for_column_raises(self, fresh_cache):
        spec = GridSpec(
            experiment_id="x", title="T", columns=("A", "B"),
            cells=(Cell(row="r", col="A",
                        spec=RunSpec(workload="nutch", scheme="ideal")),),
            metric="ipc",
        )
        with pytest.raises(ExperimentError):
            run_grid_spec(spec, n_blocks=2000)

    def test_with_blocks_pins_every_cell(self):
        pinned = figure7.SPEC.with_blocks(1234)
        for cell in pinned.cells:
            assert cell.spec.n_blocks == 1234
            assert cell.baseline.n_blocks == 1234


class TestRunSpecsExecution:
    def test_dedup_and_memo(self, fresh_cache):
        spec = RunSpec(workload="nutch", scheme="baseline", n_blocks=2000)
        results = run_specs([spec, spec, spec.canonical()])
        assert len(results) == 1
        again = run_specs([spec])
        assert again[spec.canonical()] is results[spec.canonical()]

    def test_use_cache_false_skips_disk_even_in_parallel(self, tmp_path,
                                                         monkeypatch):
        import os
        cache_dir = tmp_path / "parallel-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        clear_result_cache()
        specs = [RunSpec(workload="nutch", scheme=s, n_blocks=2000)
                 for s in ("baseline", "ideal")]
        results = run_specs(specs, backend="process", max_workers=2,
                            use_cache=False)
        assert len(results) == 2
        # Neither the parent nor any pool worker touched the disk cache.
        assert not os.path.isdir(str(cache_dir))
        clear_result_cache()

    def test_grid_spec_chart_baseline_lands_on_result(self, fresh_cache):
        result = run_grid_spec(
            colocation.spec_for("nutch"), n_blocks=2000)
        assert result.baseline == 1.0


class TestDiskCacheHitRate:
    def test_second_colocation_run_simulates_nothing(self, fresh_cache):
        colocation.run(n_blocks=2000, workload="nutch")
        first_stores = counter("cache.stores").value
        assert first_stores == len(colocation.spec_for("nutch")
                                   .run_specs(2000))
        clear_result_cache()
        diskcache.reset_counters()
        second = colocation.run(n_blocks=2000, workload="nutch")
        assert counter("cache.misses").value == 0
        assert counter("cache.stores").value == 0
        assert counter("cache.hits").value == first_stores
        assert [label for label, _ in second.rows] == \
            [f"degree {d}" for d in colocation.DEGREES]


class TestColocationEquivalence:
    """The GridSpec path reproduces the old hand-wired colocation study."""

    def test_matches_direct_simulation(self, fresh_cache):
        from repro.core.frontend import simulate
        from repro.core.metrics import speedup
        from repro.prefetch.confluence import ConfluenceScheme
        from repro.prefetch.factory import build_scheme
        from repro.uarch.predecoder import Predecoder
        from repro.workloads.profiles import (
            build_program,
            build_trace,
            get_profile,
        )

        workload, n_blocks, degree = "nutch", 2000, 4
        profile = get_profile(workload)
        generated = build_program(workload)
        trace = build_trace(workload, n_blocks)
        params = colocation._params_for_degree(degree)

        base = simulate(
            trace, build_scheme("baseline", params, generated),
            params=params,
            l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr,
        )
        config = SchemeConfig(name="confluence")
        confluence = ConfluenceScheme(
            predecoder=Predecoder(generated.program.image),
            btb_entries=16384,
            history_entries=config.confluence_history_entries,
            index_entries=config.confluence_index_entries,
            lookahead=config.confluence_stream_lookahead,
            metadata_latency=2.0 * params.llc_latency
            * (1.0 + 0.25 * (degree - 1)),
        )
        conf = simulate(
            trace, confluence,
            params=params.with_overrides(
                llc_bytes=colocation._confluence_llc_bytes(degree)),
            l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr,
        )
        shotgun = simulate(
            trace, build_scheme("shotgun", params, generated),
            params=params,
            l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr,
        )

        result = colocation.run(n_blocks=n_blocks, workload=workload)
        row = f"degree {degree}"
        assert result.value(row, "Confluence") \
            == pytest.approx(speedup(base, conf), abs=0.0)
        assert result.value(row, "Shotgun") \
            == pytest.approx(speedup(base, shotgun), abs=0.0)
