"""Tests for the workload profiles and memoised builders."""

import os

import pytest

from dataclasses import replace

from repro.core import sweep
from repro.core.sweep import clear_result_cache, run_specs
from repro.errors import ConfigError
from repro.experiments.spec import RunSpec
from repro.obs import tracing
from repro.workloads import profiles
from repro.workloads.profiles import (
    WORKLOAD_NAMES,
    build_program,
    build_trace,
    clear_caches,
    get_profile,
    register_profile,
)


class TestProfiles:
    def test_all_six_workloads_defined(self):
        assert WORKLOAD_NAMES == ("nutch", "streaming", "apache", "zeus",
                                  "oracle", "db2")
        for name in WORKLOAD_NAMES:
            profile = get_profile(name)
            assert profile.name == name
            assert profile.gen_params.n_functions > 0

    def test_lookup_case_insensitive(self):
        assert get_profile("Oracle").name == "oracle"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            get_profile("minesweeper")

    def test_oltp_has_highest_data_miss_rates(self):
        oltp = min(get_profile("oracle").l1d_misses_per_kinstr,
                   get_profile("db2").l1d_misses_per_kinstr)
        web = max(get_profile("nutch").l1d_misses_per_kinstr,
                  get_profile("apache").l1d_misses_per_kinstr)
        assert oltp > web

    def test_footprint_ordering(self):
        """Static program sizes follow the paper's working-set ordering."""
        oracle = get_profile("oracle").gen_params.n_functions
        nutch = get_profile("nutch").gen_params.n_functions
        assert oracle > nutch


class TestBuilders:
    def test_program_cache_returns_same_object(self):
        clear_caches()
        first = build_program("nutch")
        second = build_program("nutch")
        assert first is second

    def test_trace_cache_keyed_by_length(self):
        clear_caches()
        short = build_trace("nutch", 1000)
        long_ = build_trace("nutch", 2000)
        assert len(short) == 1000
        assert len(long_) == 2000
        assert build_trace("nutch", 1000) is short

    def test_custom_seed_changes_stream(self):
        clear_caches()
        reference = build_trace("nutch", 1500)
        other = build_trace("nutch", 1500, seed=99)
        assert not (reference.pc == other.pc).all()

    def test_changed_reregistration_evicts_memoised_artefacts(self):
        original = get_profile("nutch")
        program = build_program("nutch")
        try:
            register_profile(replace(original, trace_seed=77), replace=True)
            assert "nutch" not in profiles._PROGRAM_CACHE
        finally:
            register_profile(original, replace=True)
        assert build_program("nutch") is not program


def _warm_nutch(tmp_path, monkeypatch):
    """Memoise nutch's program, one trace and one simulation result."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_cache()
    spec = RunSpec(workload="nutch", scheme="baseline",
                   n_blocks=400).canonical()
    run_specs([spec], backend="serial")
    trace_keys = [key for key in profiles._TRACE_CACHE if key[0] == "nutch"]
    assert trace_keys and spec in sweep._RESULT_CACHE
    return spec, trace_keys


class TestReRegistration:
    """Re-registering an equal profile keeps every memo warm (a forked
    pool worker mirrors the parent's registry this way); a changed one
    still evicts the program, trace and result memos."""

    def test_equal_reregistration_keeps_memos_warm(self, tmp_path,
                                                    monkeypatch):
        spec, trace_keys = _warm_nutch(tmp_path, monkeypatch)
        program = profiles._PROGRAM_CACHE["nutch"]
        traces = {key: profiles._TRACE_CACHE[key] for key in trace_keys}
        result = sweep._RESULT_CACHE[spec]
        registered = register_profile(replace(get_profile("nutch")),
                                      replace=True)
        assert registered is get_profile("nutch")
        assert profiles._PROGRAM_CACHE["nutch"] is program
        for key, trace in traces.items():
            assert profiles._TRACE_CACHE[key] is trace
        assert sweep._RESULT_CACHE[spec] is result
        clear_result_cache()

    def test_changed_reregistration_evicts_all_three(self, tmp_path,
                                                     monkeypatch):
        spec, trace_keys = _warm_nutch(tmp_path, monkeypatch)
        original = get_profile("nutch")
        try:
            register_profile(replace(original, warmup_blocks=7_000),
                             replace=True)
            assert "nutch" not in profiles._PROGRAM_CACHE
            assert not any(key in profiles._TRACE_CACHE
                           for key in trace_keys)
            assert spec not in sweep._RESULT_CACHE
        finally:
            register_profile(original, replace=True)
        clear_result_cache()

    def test_equal_registration_still_needs_replace(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_profile(get_profile("nutch"))

    def test_pool_workers_start_warm(self, tmp_path, monkeypatch):
        """After the parent has built four workloads' programs, a
        2-worker process sweep of them builds no program in a worker,
        and each program's binary image is built once (program-affine
        units: four equal groups on two workers are not split)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        workloads = ("nutch", "flatstream", "gc", "jit")
        clear_caches()
        programs = {name: build_program(name).program
                    for name in workloads}
        specs = [RunSpec(workload=name, scheme=scheme, n_blocks=400)
                 for name in workloads for scheme in ("baseline", "ideal")]
        tracing.reset()
        with tracing.enable():
            results = run_specs(specs, backend="process", max_workers=2)
        spans = tracing.drain()
        assert len(results) == len(specs)
        parent = os.getpid()
        worker = [s for s in spans if s["pid"] != parent]
        assert any(s["name"] == "simulate" for s in worker), \
            "no cell ran in a worker"
        assert [s for s in spans if s["name"] == "build_program"] == []
        images = sorted(s["attrs"]["functions"] for s in spans
                        if s["name"] == "build_image")
        assert images == sorted(program.nfunctions
                                for program in programs.values())
        assert all("image" not in vars(program)
                   for program in programs.values())
        clear_result_cache()
