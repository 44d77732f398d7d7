"""Tests for sampled simulation as a spec axis (SampleSpec)."""

from __future__ import annotations

import pytest

from repro.core import diskcache, sweep
from repro.core.sweep import clear_result_cache
from repro.errors import ExperimentError
from repro.experiments.reporting import ExperimentResult
from repro.experiments.spec import (
    Cell,
    GridSpec,
    RunSpec,
    SAMPLE_REDUCERS,
    SampleSpec,
    run_grid_spec,
)
from repro.obs.metrics import counter


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private empty disk cache with an empty in-process memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    diskcache.reset_counters()
    sweep.reset_simulation_counter()
    clear_result_cache()
    yield
    clear_result_cache()


def _sampled_grid(n_windows: int = 3) -> GridSpec:
    base = RunSpec(workload="nutch", scheme="baseline")
    cells = (
        Cell(row="Nutch", col="Ideal",
             spec=RunSpec(workload="nutch", scheme="ideal"), baseline=base),
        Cell(row="Nutch", col="FDIP",
             spec=RunSpec(workload="nutch", scheme="fdip"), baseline=base),
    )
    return GridSpec(
        experiment_id="sampled_test", title="Sampled test",
        columns=("Ideal", "FDIP"), cells=cells, metric="speedup",
        chart_baseline=1.0, sample=SampleSpec(n_windows=n_windows),
    )


class TestSampleSpec:
    def test_windows_are_independently_seeded(self):
        sample = SampleSpec(n_windows=3)
        windows = sample.window_specs(
            RunSpec(workload="nutch", scheme="shotgun"), 6000)
        assert [w.seed for w in windows] == [1000, 1001, 1002]
        assert all(w.n_blocks == 2000 for w in windows)

    def test_budget_split_rounds_up(self):
        assert SampleSpec(n_windows=4).resolve_window_blocks(10) == 3

    def test_explicit_window_blocks_pins_length(self):
        sample = SampleSpec(n_windows=2, window_blocks=5000)
        windows = sample.window_specs(
            RunSpec(workload="db2", scheme="baseline"), 60_000)
        assert all(w.n_blocks == 5000 for w in windows)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            SampleSpec(n_windows=0)
        with pytest.raises(ExperimentError):
            SampleSpec(seed_base=0)
        with pytest.raises(ExperimentError):
            SampleSpec(window_blocks=0)

    def test_round_trips_through_dict(self):
        sample = SampleSpec(n_windows=5, window_blocks=1234, seed_base=77)
        assert SampleSpec.from_dict(sample.to_dict()) == sample

    def test_grid_round_trips_with_sample(self):
        grid = _sampled_grid()
        rebuilt = GridSpec.from_dict(grid.to_dict())
        assert rebuilt.sample == grid.sample

    def test_sample_reducers_expose_sample_stats(self):
        values = [1.0, 2.0, 3.0]
        assert SAMPLE_REDUCERS["mean"](values) == pytest.approx(2.0)
        assert SAMPLE_REDUCERS["ci95"](values) == pytest.approx(
            4.303 / 3 ** 0.5, rel=1e-3)


class TestWindowDiskKeys:
    def test_windows_have_distinct_stable_keys(self):
        sample = SampleSpec(n_windows=4)
        windows = sample.window_specs(
            RunSpec(workload="oracle", scheme="shotgun"), 8000)
        keys = [w.disk_key() for w in windows]
        assert len(set(keys)) == 4
        assert keys == [w.disk_key() for w in windows]  # stable

    def test_window_keys_differ_from_reference_run(self):
        reference = RunSpec(workload="oracle", scheme="shotgun",
                            n_blocks=2000).disk_key()
        sample = SampleSpec(n_windows=1)
        (window,) = sample.window_specs(
            RunSpec(workload="oracle", scheme="shotgun"), 2000)
        assert window.disk_key() != reference


class TestSampledExecution:
    def test_second_sampled_run_performs_zero_simulations(
            self, fresh_cache):
        grid = _sampled_grid()
        first = run_grid_spec(grid, n_blocks=3000, backend="serial")
        # 3 schemes (incl. shared baseline) x 3 windows.
        assert counter("sweep.simulations").value == 9
        # Fresh process simulation: drop the in-process memo, keep disk.
        clear_result_cache()
        sweep.reset_simulation_counter()
        second = run_grid_spec(grid, n_blocks=3000, backend="serial")
        assert counter("sweep.simulations").value == 0
        assert second.to_dict() == first.to_dict()

    def test_serial_and_parallel_sampled_results_bit_identical(
            self, fresh_cache):
        grid = _sampled_grid()
        serial = run_grid_spec(grid, n_blocks=3000, backend="serial",
                               use_cache=False)
        clear_result_cache()
        parallel = run_grid_spec(grid, n_blocks=3000, backend="process",
                                 max_workers=2)
        assert parallel.to_dict() == serial.to_dict()

    def test_sampled_result_surfaces_ci_and_samples(self, fresh_cache):
        result = run_grid_spec(_sampled_grid(), n_blocks=3000,
                               backend="serial")
        assert result.samples == 3
        assert set(result.ci) == {"Nutch"}
        assert len(result.ci["Nutch"]) == 2
        assert all(hw >= 0.0 for hw in result.ci["Nutch"])
        payload = result.to_dict()
        assert payload["samples"] == 3
        assert payload["rows"][0]["ci"] == result.ci["Nutch"]
        assert "±" in result.render()
        assert "[sampled: 3 windows" in result.render()

    def test_unsampled_result_omits_sampled_keys(self, fresh_cache):
        grid = GridSpec(
            experiment_id="plain", title="Plain", columns=("Ideal",),
            cells=(Cell(row="Nutch", col="Ideal",
                        spec=RunSpec(workload="nutch", scheme="ideal"),
                        baseline=RunSpec(workload="nutch",
                                         scheme="baseline")),),
            metric="speedup",
        )
        payload = run_grid_spec(grid, n_blocks=2000,
                                backend="serial").to_dict()
        assert "samples" not in payload
        assert all("ci" not in row for row in payload["rows"])


class TestResultRoundTrip:
    def test_ci_and_samples_round_trip(self):
        result = ExperimentResult(
            experiment_id="x", title="X", columns=["A"], samples=4)
        result.add_row("r", [1.5], ci=[0.25])
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.samples == 4
        assert rebuilt.ci == {"r": [0.25]}
        assert rebuilt.to_dict() == result.to_dict()

    def test_ci_width_must_match_columns(self):
        result = ExperimentResult(
            experiment_id="x", title="X", columns=["A", "B"])
        with pytest.raises(ExperimentError):
            result.add_row("r", [1.0, 2.0], ci=[0.1])


class TestFrontierSpec:
    def test_rows_cover_registry_and_columns_cover_schemes(self):
        from repro.experiments import frontier
        from repro.workloads.profiles import registered_workloads
        spec = frontier.spec_for()
        assert spec.sample is not None
        rows = spec.row_labels()
        assert len(rows) == len(registered_workloads())
        assert spec.columns == ("FDIP", "RDIP", "Confluence", "Boomerang",
                                "Shotgun", "Ideal")

    def test_registered_in_registry(self):
        from repro.experiments.registry import get_experiment, get_spec
        assert get_experiment("frontier")
        assert get_spec("frontier").experiment_id == "frontier"

    def test_spec_tracks_late_registrations(self):
        """registry.get_spec must see families registered after import."""
        from repro.cfg.generator import GeneratorParams
        from repro.experiments.registry import get_spec
        from repro.workloads import profiles
        from repro.workloads.profiles import WorkloadProfile, \
            register_profile
        saved = dict(profiles._PROFILES)
        try:
            register_profile(WorkloadProfile(
                name="latecomer", description="late",
                gen_params=GeneratorParams(n_functions=60, n_layers=4,
                                           n_roots=4, seed=95),
            ))
            rows = get_spec("frontier").row_labels()
            assert "latecomer" in rows
        finally:
            profiles._PROFILES.clear()
            profiles._PROFILES.update(saved)
