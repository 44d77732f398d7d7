"""Tests for the pluggable workload-family registry."""

from __future__ import annotations

import pytest

from repro.cfg.generator import GeneratorParams
from repro.errors import ConfigError
from repro.workloads.families import FAMILIES, FAMILY_NAMES
from repro.workloads.profiles import (
    WORKLOAD_NAMES,
    WorkloadProfile,
    build_program,
    build_trace,
    get_profile,
    iter_profiles,
    register_profile,
    registered_workloads,
)

TINY = GeneratorParams(n_functions=60, n_layers=4, n_roots=4,
                       median_blocks=6.0, seed=91)


@pytest.fixture
def scratch_registry():
    """Restore the registry (and evicted caches) after a test mutates it."""
    from repro.workloads import profiles
    saved = dict(profiles._PROFILES)
    yield
    profiles._PROFILES.clear()
    profiles._PROFILES.update(saved)
    profiles.clear_caches()


class TestRegistry:
    def test_paper_suite_and_families_registered(self):
        names = registered_workloads()
        assert names[:len(WORKLOAD_NAMES)] == WORKLOAD_NAMES
        for family in FAMILY_NAMES:
            assert family in names

    def test_suite_tags(self):
        for name in WORKLOAD_NAMES:
            assert get_profile(name).suite == "table2"
        for name in FAMILY_NAMES:
            assert get_profile(name).suite == "synthetic"

    def test_iter_profiles_matches_names(self):
        assert tuple(p.name for p in iter_profiles()) \
            == registered_workloads()

    def test_duplicate_registration_rejected(self, scratch_registry):
        with pytest.raises(ConfigError):
            register_profile(WorkloadProfile(
                name="nutch", description="imposter", gen_params=TINY,
            ))

    def test_registration_is_case_normalised(self, scratch_registry):
        profile = register_profile(WorkloadProfile(
            name="MyCustom", description="custom", gen_params=TINY,
        ))
        assert profile.name == "mycustom"
        assert get_profile("MYCUSTOM") is profile
        assert "mycustom" in registered_workloads()

    def test_replace_evicts_sweep_result_memo(self, scratch_registry,
                                              tmp_path, monkeypatch):
        """Re-registering a name must not serve stale in-process results."""
        from repro.core import sweep
        from repro.experiments.spec import RunSpec
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        sweep.clear_result_cache()
        register_profile(WorkloadProfile(
            name="restaged", description="v1", gen_params=TINY,
        ))
        spec = RunSpec(workload="restaged", scheme="baseline",
                       n_blocks=400)
        first = sweep.run_spec(spec)
        register_profile(WorkloadProfile(
            name="restaged", description="v2",
            gen_params=GeneratorParams(n_functions=240, n_layers=5,
                                       n_roots=6, seed=94),
        ), replace=True)
        second = sweep.run_spec(spec)
        assert second is not first
        assert second.stats != first.stats
        sweep.clear_result_cache()

    def test_replace_changes_run_specs_disk_keys(self, scratch_registry,
                                                tmp_path, monkeypatch):
        """run_specs keys its disk probe afresh on every call: after a
        re-registration it neither loads nor stores under the old
        profile's key."""
        from repro.core import sweep
        from repro.experiments.spec import RunSpec
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        spec = RunSpec(workload="rekeyed", scheme="baseline", n_blocks=400)

        def run():
            sweep.clear_result_cache()  # leave only the disk cache
            return sweep.run_specs([spec], backend="serial")[
                spec.canonical()]

        register_profile(WorkloadProfile(
            name="rekeyed", description="v1", gen_params=TINY,
        ))
        first = run()
        register_profile(WorkloadProfile(
            name="rekeyed", description="v2",
            gen_params=GeneratorParams(n_functions=240, n_layers=5,
                                       n_roots=6, seed=94),
        ), replace=True)
        second = run()
        assert second.stats != first.stats
        assert run().stats == second.stats
        sweep.clear_result_cache()

    def test_replace_evicts_memoised_artefacts(self, scratch_registry):
        register_profile(WorkloadProfile(
            name="mutable", description="v1", gen_params=TINY,
        ))
        first = build_program("mutable")
        first_trace = build_trace("mutable", 500)
        register_profile(WorkloadProfile(
            name="mutable", description="v2",
            gen_params=GeneratorParams(n_functions=120, n_layers=4,
                                       n_roots=4, seed=92),
        ), replace=True)
        assert build_program("mutable") is not first
        assert build_trace("mutable", 500) is not first_trace

    def test_registered_family_flows_through_runspec(self, scratch_registry):
        from repro.experiments.spec import RunSpec
        register_profile(WorkloadProfile(
            name="customflow", description="custom", gen_params=TINY,
        ))
        spec = RunSpec(workload="customflow", scheme="baseline",
                       n_blocks=400)
        assert spec.disk_key()  # resolvable without error

    def test_profile_content_feeds_disk_keys(self, scratch_registry):
        """Same name, different generator params -> different cache keys."""
        from repro.experiments.spec import RunSpec
        register_profile(WorkloadProfile(
            name="keyed", description="v1", gen_params=TINY,
        ))
        spec = RunSpec(workload="keyed", scheme="baseline", n_blocks=400)
        key_v1 = spec.disk_key()
        assert key_v1 == spec.disk_key()  # stable
        register_profile(WorkloadProfile(
            name="keyed", description="v2",
            gen_params=GeneratorParams(n_functions=80, n_layers=4,
                                       n_roots=4, seed=93),
        ), replace=True)
        assert spec.disk_key() != key_v1


class TestFamilies:
    def test_five_families_shipped(self):
        assert len(FAMILIES) == 5
        assert FAMILY_NAMES == ("microservice", "jit", "gc", "kernelio",
                                "flatstream")

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_family_builds_a_trace(self, name):
        trace = build_trace(name, 800)
        assert len(trace) == 800
        assert trace.instruction_count > 0

    def test_families_push_distinct_axes(self):
        table2_max_indirect = max(
            get_profile(n).gen_params.indirect_fraction
            for n in WORKLOAD_NAMES)
        assert get_profile("jit").gen_params.indirect_fraction \
            > 2 * table2_max_indirect
        table2_max_layers = max(
            get_profile(n).gen_params.n_layers for n in WORKLOAD_NAMES)
        assert get_profile("microservice").gen_params.n_layers \
            > table2_max_layers
        table2_max_trap = max(
            get_profile(n).gen_params.trap_fraction
            for n in WORKLOAD_NAMES)
        assert get_profile("kernelio").gen_params.trap_fraction \
            > 2 * table2_max_trap
        assert get_profile("flatstream").gen_params.n_functions < min(
            get_profile(n).gen_params.n_functions for n in WORKLOAD_NAMES)

    def test_paper_figure_rows_unchanged(self):
        """Figure experiments must not grow rows when families register."""
        from repro.experiments import figure7
        assert len(figure7.SPEC.cells) == 3 * len(WORKLOAD_NAMES)
