"""The execution policy: validation, the auto-backend rule, scoping."""

from __future__ import annotations

import os

import pytest

from repro.core.exec import ExecutionPolicy, auto_backend, current_policy, \
    scoped_policy, usable_cpus
from repro.core.exec import policy as policy_module
from repro.core.sweep import clear_result_cache, run_specs
from repro.errors import ReproError
from repro.experiments.spec import RunSpec
from repro.obs import metrics


class TestValidation:
    @pytest.mark.parametrize("field, value, flag", [
        ("backend", "bogus", "--backend"),
        ("max_workers", 0, "--max-workers"),
        ("retries", -1, "--retries"),
        ("unit_timeout", 0, "--unit-timeout"),
        ("unit_timeout", -3.0, "--unit-timeout"),
        ("on_error", "explode", "--on-error"),
        ("engine", "vectorized", "--engine"),
        ("disk_cache", "no", "--no-cache"),
        ("telemetry", "", "--telemetry"),
    ])
    def test_bad_value_names_its_flag(self, field, value, flag):
        with pytest.raises(ReproError, match=flag):
            ExecutionPolicy(**{field: value})

    def test_names_are_normalised(self):
        policy = ExecutionPolicy(backend="Thread", on_error="SKIP")
        assert (policy.backend, policy.on_error) == ("thread", "skip")

    def test_run_specs_validates_overrides(self):
        with pytest.raises(ReproError, match="--retries"):
            run_specs([], retries=-1)
        with pytest.raises(TypeError):
            run_specs([], parallel=True)

    @pytest.mark.parametrize("policy, supervised", [
        (ExecutionPolicy(), False),
        (ExecutionPolicy(retries=1), True),
        (ExecutionPolicy(unit_timeout=5.0), True),
        (ExecutionPolicy(on_error="skip"), True),
    ])
    def test_supervision_follows_fault_tolerance_fields(self, policy,
                                                        supervised):
        assert policy.make_backend(1).supervised is supervised


class TestAutoBackend:
    @pytest.mark.parametrize("cpus, workers, expected", [
        (1, 1, "serial"),
        (1, 2, "serial"),
        (2, 1, "serial"),
        (2, 2, "process"),
    ])
    def test_decision_table(self, monkeypatch, cpus, workers, expected):
        monkeypatch.setattr(policy_module, "usable_cpus", lambda: cpus)
        assert auto_backend(workers) == expected

    def test_affinity_mask_bounds_the_pool(self, monkeypatch):
        """Pinned to one CPU of a multi-core machine (``taskset -c 0``),
        the process may use one CPU: no pool, serial."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert usable_cpus() == 1
        assert auto_backend(2) == "serial"
        backend = ExecutionPolicy().make_backend(18)
        assert (backend.name, backend.max_workers) == ("serial", 1)

    def test_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3

    def test_workers_clamp_to_pending_cells(self, monkeypatch):
        monkeypatch.setattr(policy_module, "usable_cpus", lambda: 2)
        assert ExecutionPolicy().make_backend(1).name == "serial"
        pool = ExecutionPolicy().make_backend(5)
        assert (pool.name, pool.max_workers) == ("process", 2)
        named = ExecutionPolicy(backend="thread", max_workers=8)
        assert named.make_backend(3).max_workers == 3


class TestScope:
    def test_default_outside_any_scope(self):
        assert current_policy() == ExecutionPolicy()

    def test_scope_restores_previous_policy_after_exception(self):
        outer = ExecutionPolicy(backend="serial")
        with scoped_policy(outer):
            with pytest.raises(RuntimeError):
                with scoped_policy(ExecutionPolicy(retries=2)):
                    assert current_policy().retries == 2
                    raise RuntimeError("boom")
            assert current_policy() is outer
        assert current_policy() == ExecutionPolicy()

    def test_run_specs_reads_the_scoped_policy(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        seen = []
        spec = RunSpec(workload="nutch", scheme="baseline", n_blocks=2000)
        with scoped_policy(ExecutionPolicy(backend="serial",
                                           progress=seen.append)):
            run_specs([spec])
        assert [event.kind for event in seen][0] == "start"
        # An explicit override replaces the scoped field for one call.
        quiet, before = [], len(seen)
        with scoped_policy(ExecutionPolicy(progress=seen.append)):
            run_specs([spec], progress=quiet.append)
        assert quiet and len(seen) == before
        clear_result_cache()


def _engine_counts(delta):
    counters = delta["counters"]
    return (counters.get("engine.columnar_cells", 0),
            counters.get("engine.fallback_cells", 0))


class TestSettings:
    """Engine, disk cache and telemetry are policy fields; their
    environment forms fill only unset fields, read in one function when
    the policy is resolved (once per ``run_specs`` call)."""

    CELLS = [RunSpec(workload=workload, scheme="baseline", n_blocks=1000)
             for workload in ("nutch", "streaming")]

    @pytest.fixture(autouse=True)
    def _clean_env(self, tmp_path, monkeypatch):
        for name in ("REPRO_ENGINE", "REPRO_DISK_CACHE", "REPRO_TELEMETRY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        yield
        clear_result_cache()

    def test_defaults(self):
        policy = ExecutionPolicy().resolved()
        assert (policy.engine, policy.disk_cache, policy.telemetry) \
            == ("interpreter", True, None)

    def test_unset_fields_read_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.setenv("REPRO_TELEMETRY", "t.jsonl")
        policy = ExecutionPolicy().resolved()
        assert (policy.engine, policy.disk_cache, policy.telemetry) \
            == ("columnar", False, "t.jsonl")
        # Set fields win, and a resolved policy resolves to itself.
        policy = ExecutionPolicy(engine="interpreter", disk_cache=True,
                                 telemetry="mine.jsonl").resolved()
        assert (policy.engine, policy.disk_cache, policy.telemetry) \
            == ("interpreter", True, "mine.jsonl")
        assert policy.resolved() is policy

    def test_each_environment_form_is_honoured_once_per_call(
            self, tmp_path, monkeypatch):
        reads = []
        read = policy_module._environment_settings
        monkeypatch.setattr(policy_module, "_environment_settings",
                            lambda: reads.append(1) or read())
        stream = tmp_path / "tel.jsonl"
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.setenv("REPRO_TELEMETRY", str(stream))
        before = metrics.snapshot()
        run_specs(self.CELLS, backend="thread", max_workers=2)
        delta = metrics.delta(before, metrics.snapshot())
        assert len(reads) == 1
        assert _engine_counts(delta) == (len(self.CELLS), 0)
        assert delta["counters"].get("cache.stores", 0) == 0
        assert not os.path.isdir(str(tmp_path / "cache"))
        assert '"kind": "progress"' in stream.read_text()

    def test_engine_resolves_per_call_not_at_import(self, monkeypatch):
        """A caller may switch ``REPRO_ENGINE`` between calls (the
        benchmark's reference pass does): each call resolves anew."""
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        before = metrics.snapshot()
        run_specs(self.CELLS, use_cache=False, backend="serial")
        monkeypatch.setenv("REPRO_ENGINE", "interpreter")
        middle = metrics.snapshot()
        run_specs(self.CELLS, use_cache=False, backend="serial")
        after = metrics.snapshot()
        assert _engine_counts(metrics.delta(before, middle)) \
            == (len(self.CELLS), 0)
        assert _engine_counts(metrics.delta(middle, after)) == (0, 0)

    def test_invalid_engine_fails_on_a_fully_cached_collection(
            self, monkeypatch):
        run_specs(self.CELLS, backend="serial")
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        with pytest.raises(ReproError, match="REPRO_ENGINE"):
            run_specs(self.CELLS, backend="serial")
