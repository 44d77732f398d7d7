"""Tests for the workload profiles and memoised builders."""

import pytest

from dataclasses import replace

from repro.errors import ConfigError
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
