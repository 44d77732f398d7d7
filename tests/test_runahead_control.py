"""Run-ahead control columns: same bits as the calling path.

FDIP, Boomerang and Shotgun cells read replayed clock-free control
columns (``repro.core.control``) instead of calling their BTBs, TAGE and
RAS block by block.  Passing an explicit predictor selects the calling
path, so the two paths are compared on one cell.  The columns are legal
only because that control never reads the clock: the call-recorder test
shows FDIP's and Boomerang's ordered control calls do not move when the
latencies and the FTQ do.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MicroarchParams, SchemeConfig
from repro.core import control, frontend
from repro.core.frontend import FrontEnd, _fold_sequences
from repro.core.sweep import clear_result_cache, run_specs
from repro.experiments.spec import RunSpec, SampleSpec
from repro.prefetch.factory import build_scheme
from repro.prefetch.fdip import FdipScheme
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch import tage
from repro.uarch.predecoder import Predecoder
from repro.uarch.tage import PrecomputedHistoryTage
from repro.workloads.profiles import build_trace

RUNAHEAD = ("fdip", "boomerang", "shotgun", "shotgun-norib",
            "shotgun-reactive")


def _exact(result):
    """Stats as ``{field: (type, repr)}`` — exact value and type."""
    return {name: (type(value).__name__, repr(value))
            for name, value in dataclasses.asdict(result.stats).items()}


def _scheme(name, params, generated):
    """A run-ahead scheme with *params*' BTB size; the two Shotgun
    ablations built by hand."""
    if not name.startswith("shotgun-"):
        return build_scheme(name, params, generated, SchemeConfig(
            name=name, btb_entries=params.btb_entries))
    return ShotgunScheme(
        predecoder=Predecoder(generated.program.image),
        sizes=SchemeConfig(name="shotgun").shotgun_sizes,
        btb_assoc=params.btb_assoc,
        prefetch_buffer_entries=params.btb_prefetch_buffer,
        predecode_latency=float(params.predecode_latency),
        use_rib=name != "shotgun-norib",
        proactive_cbtb=name != "shotgun-reactive")


def _both_paths(trace, name, params, warmup_fraction):
    """(column-path engine, its result, calling-path result)."""
    columns = FrontEnd(trace, _scheme(name, params, trace.generated),
                       params=params, warmup_fraction=warmup_fraction)
    calls = FrontEnd(trace, _scheme(name, params, trace.generated),
                     params=params, warmup_fraction=warmup_fraction,
                     predictor=PrecomputedHistoryTage(
                         _fold_sequences(trace)))
    return columns, columns.run(), calls.run()


class TestDifferential:
    """Column path and calling path, same cell, equal ``EngineStats``."""

    @given(
        workload=st.sampled_from(["apache", "nutch", "oracle",
                                  "streaming", "zeus"]),
        seed=st.integers(min_value=1, max_value=10_000),
        scheme=st.sampled_from(RUNAHEAD),
        btb=st.sampled_from([(512, 4), (1024, 8), (2048, 4)]),
        buffer_entries=st.sampled_from([4, 32]),
        ftq_size=st.sampled_from([4, 12, 32]),
        predecode_latency=st.sampled_from([1, 3, 9]),
        warmup_fraction=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_windows_bit_identical(self, workload, seed, scheme,
                                          btb, buffer_entries, ftq_size,
                                          predecode_latency,
                                          warmup_fraction):
        params = MicroarchParams().with_overrides(
            btb_entries=btb[0], btb_assoc=btb[1],
            btb_prefetch_buffer=buffer_entries, ftq_size=ftq_size,
            predecode_latency=predecode_latency)
        trace = build_trace(workload, 1200, seed=seed)
        engine, columns, calls = _both_paths(trace, scheme, params,
                                             warmup_fraction)
        assert _exact(columns) == _exact(calls)
        # The column path built no direction predictor of its own.
        assert engine.predictor is None

    @pytest.mark.parametrize("scheme", RUNAHEAD)
    def test_default_params_every_scheme(self, scheme):
        trace = build_trace("apache", 2500)
        _, columns, calls = _both_paths(trace, scheme, MicroarchParams(),
                                        0.1)
        assert _exact(columns) == _exact(calls)

    def test_overridden_hook_stays_on_calls(self):
        """A subclass may rely on hooks the replays elide: it runs on
        calls, hook and all."""
        retired = []

        class CountingFdip(FdipScheme):
            def on_retire(self, pc, ninstr, kind, taken, target, now):
                retired.append(pc)

        trace = build_trace("nutch", 1500, seed=17)
        params = MicroarchParams()
        assert control.runahead_control(trace, CountingFdip(),
                                        params.ras_size) is None
        engine = FrontEnd(trace, CountingFdip(), params=params)
        result = engine.run()
        assert retired == trace.hot.pc
        assert engine.predictor is not None
        reference = FrontEnd(trace, FdipScheme(), params=params).run()
        assert _exact(result) == _exact(reference)


class _Recorder:
    """Logs every method call on *target* (name, args, result)."""

    def __init__(self, target, log, label):
        self._target = target
        self._log = log
        self._label = label

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr
        log, label = self._log, self._label

        def record(*args):
            result = attr(*args)
            log.append((label, name, args, result))
            return result
        return record


def _control_calls(trace, name, params):
    """The ordered BTB, prefetch-buffer, RAS and TAGE calls of a cell
    on the calling path, and its result."""
    log = []
    scheme = build_scheme(name, params, trace.generated)
    scheme.btb = _Recorder(scheme.btb, log, "btb")
    if hasattr(scheme, "prefetch_buffer"):
        scheme.prefetch_buffer = _Recorder(scheme.prefetch_buffer, log,
                                           "buffer")
    predictor = _Recorder(PrecomputedHistoryTage(_fold_sequences(trace)),
                          log, "tage")
    engine = FrontEnd(trace, scheme, params=params, predictor=predictor)
    engine.ras = _Recorder(engine.ras, log, "ras")
    return log, engine.run()


class TestControlReadsNoClock:
    """The premise of the columns: FDIP's and Boomerang's control calls
    are the same, in the same order, whatever the timing."""

    @pytest.mark.parametrize("name", ["fdip", "boomerang"])
    @pytest.mark.parametrize("workload", ["apache", "oracle"])
    def test_call_log_is_latency_invariant(self, name, workload):
        trace = build_trace(workload, 2000, seed=29)
        default = MicroarchParams()
        retimed = default.with_overrides(
            llc_latency=default.llc_latency * 3,
            memory_latency=default.memory_latency // 2,
            ftq_size=7)
        log, result = _control_calls(trace, name, default)
        retimed_log, retimed_result = _control_calls(trace, name, retimed)
        assert result.cycles != retimed_result.cycles
        assert {entry[:2] for entry in log} >= {
            ("btb", "lookup"), ("tage", "predict_update"),
            ("ras", "push"), ("ras", "pop")}
        assert retimed_log == log


class TestReplayCounts:
    """A sampled sweep replays each trace's control once per geometry
    and runs three TAGE replays per window (ideal, baseline, Confluence)."""

    SCHEMES = ("baseline", "fdip", "confluence", "boomerang", "shotgun",
               "ideal")
    WORKLOADS = ("flatstream", "nutch")

    def test_one_replay_per_trace_and_geometry(self, monkeypatch):
        counts = {"demand": 0, "boomerang": 0, "ideal": 0, "tage": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(control, "_replay_demand",
                            counting("demand", control._replay_demand))
        monkeypatch.setattr(control, "_replay_boomerang",
                            counting("boomerang",
                                     control._replay_boomerang))
        monkeypatch.setattr(control, "replay_cond_mispredicts",
                            counting("ideal",
                                     control.replay_cond_mispredicts))
        monkeypatch.setattr(tage.PrecomputedHistoryTage, "__init__",
                            counting("tage",
                                     tage.PrecomputedHistoryTage.__init__))
        sample = SampleSpec(n_windows=3, seed_base=918_000)
        specs = [spec for workload in self.WORKLOADS
                 for scheme in self.SCHEMES
                 for spec in sample.window_specs(
                     RunSpec(workload=workload, scheme=scheme), 3600)]
        clear_result_cache()
        results = run_specs(specs, use_cache=False, backend="serial",
                            engine="columnar")
        clear_result_cache()
        assert len(results) == len(specs)
        windows = len(self.WORKLOADS) * sample.n_windows
        assert counts == {"demand": windows, "boomerang": windows,
                          "ideal": windows, "tage": 3 * windows}

        monkeypatch.undo()
        params = MicroarchParams()
        geometry = FdipScheme().btb.geometry
        buffer_entries, ras_size = params.btb_prefetch_buffer, params.ras_size
        for workload in self.WORKLOADS:
            for spec in sample.window_specs(
                    RunSpec(workload=workload, scheme="fdip"), 3600):
                trace = build_trace(workload, spec.n_blocks,
                                    seed=spec.seed)
                assert control._replay_demand(trace, geometry, ras_size) \
                    == control.demand_control(trace, geometry, ras_size)
                dir_wrong = control.ideal_control(trace)[1]
                assert bytes(tage.replay_cond_mispredicts(
                    _fold_sequences(trace), trace.hot.pc, trace.hot.kind,
                    trace.hot.taken, frontend._KIND_COND)) == dir_wrong
                assert control._replay_boomerang(
                    trace, dir_wrong, geometry, buffer_entries, ras_size) \
                    == control.boomerang_control(trace, geometry,
                                                 buffer_entries, ras_size)
