"""Tests for SMARTS-style sampled simulation."""

import pytest

from repro.core.exec import ExecutionPolicy, scoped_policy
from repro.core.sampling import SampleStats, aggregate, sampled_comparison, \
    t_quantile_975
from repro.errors import SimulationError
from repro.obs.metrics import counter


class TestAggregate:
    def test_single_sample(self):
        stats = aggregate([2.0])
        assert stats.mean == 2.0
        assert stats.ci95 == 0.0
        assert stats.n == 1

    def test_mean_and_interval(self):
        stats = aggregate([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.stdev == pytest.approx(1.0)
        # t(df=2, 97.5%) = 4.303 -> CI = 4.303 * 1 / sqrt(3).
        assert stats.ci95 == pytest.approx(4.303 / 3 ** 0.5, rel=1e-3)

    def test_identical_samples_have_zero_interval(self):
        stats = aggregate([1.5] * 5)
        assert stats.stdev == 0.0
        assert stats.ci95 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            aggregate([])

    def test_str_format(self):
        assert "n=2" in str(aggregate([1.0, 2.0]))

    def test_t_quantile_converges_to_normal_beyond_table(self):
        """df > 30 must use 1.96, not clamp to the df=30 entry (2.042)."""
        assert t_quantile_975(30) == pytest.approx(2.042)
        assert t_quantile_975(31) == pytest.approx(1.96)
        assert t_quantile_975(1000) == pytest.approx(1.96)
        with pytest.raises(SimulationError):
            t_quantile_975(0)

    def test_wide_sample_uses_normal_quantile(self):
        """The n=32 boundary: df=31 is past the table."""
        import math
        values = [0.0, 1.0] * 16          # n=32, stdev computable
        n = len(values)
        stats = aggregate(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        expected = 1.96 * math.sqrt(variance) / math.sqrt(n)
        assert stats.ci95 == pytest.approx(expected)
        # One fewer sample sits exactly on the last table entry.
        boundary = aggregate(values[:-1])
        assert boundary.n == 31
        assert boundary.ci95 > 0
        assert t_quantile_975(30) == pytest.approx(2.042)


class TestSampledComparison:
    def test_windows_produce_confidence_interval(self):
        comparison = sampled_comparison(
            "nutch", "boomerang", n_windows=3, window_blocks=5000,
        )
        assert comparison.speedup.n == 3
        assert comparison.speedup.mean > 0.9
        # Independent seeds -> genuine variance -> non-degenerate CI.
        assert comparison.speedup.stdev >= 0.0
        assert 0.0 <= comparison.coverage.mean <= 1.0

    def test_rejects_zero_windows(self):
        with pytest.raises(SimulationError):
            sampled_comparison("nutch", "shotgun", n_windows=0)

    def test_flows_through_shared_cached_path(self, tmp_path, monkeypatch):
        """The rewrite runs windows through run_specs: a repeated
        comparison is served entirely from the disk cache."""
        from repro.core import sweep
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        sweep.clear_result_cache()
        sweep.reset_simulation_counter()
        with scoped_policy(ExecutionPolicy(backend="serial")):
            first = sampled_comparison("nutch", "fdip", n_windows=2,
                                       window_blocks=2000)
        assert counter("sweep.simulations").value == 4  # 2 schemes x 2 windows
        sweep.clear_result_cache()
        sweep.reset_simulation_counter()
        with scoped_policy(ExecutionPolicy(backend="serial")):
            second = sampled_comparison("nutch", "fdip", n_windows=2,
                                        window_blocks=2000)
        assert counter("sweep.simulations").value == 0
        assert second == first
        sweep.clear_result_cache()
