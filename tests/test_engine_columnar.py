"""Differential tests: the columnar engine is bit-identical.

The ``--engine`` flag must be **output-neutral**: for every cell the
columnar core either replays the interpreter to the last bit or falls
back to it.  These tests drive random RunSpec-shaped inputs (every
registered scheme x sampled workload families x microarch parameter
points) through both engines and compare ``SimulationResult`` stats
field by field on exact value *and* type — a 1-ULP drift or a stray
``np.float64`` leaking into the (JSON-cached) stats fails here.

The golden suite re-runs under ``REPRO_ENGINE=columnar`` against the
same pinned snapshots the interpreter must match, so the no-drift /
no-``ENGINE_VERSION``-bump contract covers both cores.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MicroarchParams
from repro.core import engine_columnar, engine_select
from repro.core import frontend
from repro.core.exec import ExecutionPolicy, scoped_policy
from repro.core.sweep import clear_result_cache
from repro.errors import ReproError, SimulationError
from repro.prefetch.factory import SCHEME_FACTORIES, build_scheme
from repro.workloads.profiles import build_trace

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

#: Eligible for columnar replay; everything else must fall back.
COLUMNAR_SCHEMES = ("baseline", "ideal")


def _exact_stats(result):
    """Stats as ``{field: (type, repr)}`` — exact-value, exact-type."""
    return {name: (type(value).__name__, repr(value))
            for name, value in
            dataclasses.asdict(result.stats).items()}


def _build(workload, scheme, params, n_blocks):
    trace = build_trace(workload, n_blocks)
    return trace, build_scheme(scheme, params, trace.generated)


def _assert_identical(workload, scheme, params, n_blocks,
                      monkeypatch, **kwargs):
    trace, s1 = _build(workload, scheme, params, n_blocks)
    s2 = build_scheme(scheme, params, trace.generated)
    reference = frontend.simulate(trace, s1, params=params, **kwargs)
    candidate = engine_select.simulate(trace, s2, params=params,
                                       engine="columnar", **kwargs)
    assert candidate.scheme == reference.scheme
    assert _exact_stats(candidate) == _exact_stats(reference)


class TestEligibility:
    def test_exact_scheme_types_only(self):
        params = MicroarchParams()
        trace = build_trace("nutch", 1500)
        for name in ALL_SCHEMES:
            scheme = build_scheme(name, params, trace.generated)
            assert engine_columnar.supports(scheme) \
                == (name in COLUMNAR_SCHEMES)

    def test_custom_predictor_falls_back(self):
        params = MicroarchParams()
        trace = build_trace("nutch", 1500)
        scheme = build_scheme("baseline", params, trace.generated)
        assert not engine_columnar.supports(scheme, predictor=object())

    def test_ineligible_scheme_rejected_loudly(self):
        params = MicroarchParams()
        trace = build_trace("nutch", 1500)
        scheme = build_scheme("shotgun", params, trace.generated)
        with pytest.raises(SimulationError, match="cannot replay"):
            engine_columnar.simulate_columnar(trace, scheme,
                                              params=params)


class TestSelection:
    """The engine is a policy setting; ``REPRO_ENGINE`` fills it only
    when the policy leaves it unset, read when the policy is resolved
    (``run_specs`` does so once per call)."""

    def test_default_is_interpreter(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert ExecutionPolicy().resolved().engine == "interpreter"

    def test_env_selects_columnar(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", " Columnar ")
        assert ExecutionPolicy().resolved().engine == "columnar"
        # A set field wins over the environment.
        assert ExecutionPolicy(engine="interpreter").resolved().engine \
            == "interpreter"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        with pytest.raises(ReproError, match="REPRO_ENGINE"):
            ExecutionPolicy().resolved()
        with pytest.raises(ReproError, match="--engine"):
            ExecutionPolicy(engine="vectorized")

    def test_columnar_path_actually_taken(self, monkeypatch):
        """The eligible path must not silently route back to the
        interpreter — a differential suite comparing the interpreter
        to itself would prove nothing."""
        params = MicroarchParams()
        trace, scheme = _build("apache", "baseline", params, 2000)

        def _boom(*args, **kwargs):
            raise AssertionError(
                "interpreter must not run for an eligible cell")

        monkeypatch.setattr(frontend, "simulate", _boom)
        result = engine_select.simulate(trace, scheme, params=params,
                                        engine="columnar")
        assert result.stats.instructions > 0

    def test_ineligible_cell_falls_back_to_interpreter(self,
                                                       monkeypatch):
        params = MicroarchParams()
        trace, scheme = _build("apache", "fdip", params, 2000)
        sentinel = object()
        monkeypatch.setattr(frontend, "simulate",
                            lambda *a, **k: sentinel)
        assert engine_select.simulate(trace, scheme, params=params,
                                      engine="columnar") is sentinel


class TestDifferential:
    """Both engines, same cell, bit-identical stats."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme_default_params(self, scheme, monkeypatch):
        _assert_identical("apache", scheme, MicroarchParams(), 2500,
                          monkeypatch)

    @pytest.mark.parametrize("scheme", COLUMNAR_SCHEMES)
    @pytest.mark.parametrize("workload",
                             ["nutch", "streaming", "zeus", "db2"])
    def test_columnar_schemes_across_workloads(self, scheme, workload,
                                               monkeypatch):
        _assert_identical(workload, scheme, MicroarchParams(), 2000,
                          monkeypatch)

    def test_zero_warmup_window(self, monkeypatch):
        _assert_identical("apache", "baseline", MicroarchParams(), 2000,
                          monkeypatch, warmup_fraction=0.0)

    def test_heavy_l1d_traffic(self, monkeypatch):
        _assert_identical("oracle", "baseline", MicroarchParams(), 2000,
                          monkeypatch, l1d_misses_per_kinstr=80.0)

    @given(
        workload=st.sampled_from(["apache", "nutch", "oracle",
                                  "streaming"]),
        scheme=st.sampled_from(COLUMNAR_SCHEMES),
        issue_width=st.sampled_from([2, 3, 5, 8]),
        flush_penalty=st.sampled_from([10, 14, 20]),
        btb=st.sampled_from([(512, 4), (2048, 4), (1024, 8)]),
        warmup_fraction=st.sampled_from([0.0, 0.1, 0.3]),
        n_blocks=st.sampled_from([1600, 2400, 3200]),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_runspecs_bit_identical(self, workload, scheme,
                                           issue_width, flush_penalty,
                                           btb, warmup_fraction,
                                           n_blocks):
        params = MicroarchParams().with_overrides(
            issue_width=issue_width, flush_penalty=flush_penalty,
            btb_entries=btb[0], btb_assoc=btb[1])
        trace, s1 = _build(workload, scheme, params, n_blocks)
        s2 = build_scheme(scheme, params, trace.generated)
        reference = frontend.simulate(
            trace, s1, params=params, warmup_fraction=warmup_fraction)
        candidate = engine_columnar.simulate_columnar(
            trace, s2, params=params, warmup_fraction=warmup_fraction)
        assert _exact_stats(candidate) == _exact_stats(reference)


class TestKeyAndFingerprintNeutrality:
    """The engine *selection* is output-neutral and so must be absent
    from all key material; the columnar *implementation* can change
    output if it drifts, so its source must be fingerprinted."""

    def test_selection_not_in_cache_keys(self, monkeypatch):
        from repro.core.diskcache import spec_key
        from repro.experiments.spec import RunSpec
        spec = RunSpec(workload="apache", scheme="baseline",
                       n_blocks=2000)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        interpreter_key = spec_key(spec)
        with scoped_policy(ExecutionPolicy(engine="columnar")):
            assert spec_key(spec) == interpreter_key
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert spec_key(spec) == interpreter_key

    def test_columnar_modules_are_fingerprinted(self):
        import repro
        from repro.core.diskcache import _FINGERPRINT_EXCLUDE
        root = os.path.dirname(os.path.abspath(repro.__file__))
        seen = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__"
                and os.path.relpath(os.path.join(dirpath, d), root)
                not in _FINGERPRINT_EXCLUDE)
            seen.extend(
                os.path.relpath(os.path.join(dirpath, name), root)
                for name in filenames if name.endswith(".py"))
        assert os.path.join("core", "engine_columnar.py") in seen
        assert os.path.join("core", "engine_select.py") in seen


class TestGoldenUnderColumnar:
    """The pinned golden snapshots hold under ``--engine columnar``
    (eligible cells replayed columnar, run-ahead cells falling back) —
    the flag changes no figure and needs no ``ENGINE_VERSION`` bump."""

    @pytest.fixture()
    def columnar_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        clear_result_cache()
        yield
        clear_result_cache()

    @pytest.mark.parametrize("experiment_id", ["figure1", "figure7"])
    def test_golden_snapshot_under_columnar(self, experiment_id,
                                            columnar_env):
        from tests.test_golden_figures import compute_snapshot, \
            golden_path
        path = golden_path(experiment_id)
        if not os.path.exists(path):
            pytest.skip(f"no golden snapshot for {experiment_id}")
        with open(path, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
        assert compute_snapshot(experiment_id) == pinned
