"""Cells share program- and trace-derived state without leaking into it.

Every cell of a program starts from one warm LLC snapshot kept on the
program, and every cell of a trace replays one set of TAGE fold
sequences kept on the trace.  Running each scheme twice on one trace,
interleaved, must give equal statistics both times, and must leave the
shared state exactly as a fresh build makes it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import MicroarchParams
from repro.core import engine_select
from repro.core.frontend import _fold_sequences, _warm_llc_state
from repro.prefetch.factory import SCHEME_FACTORIES, build_scheme
from repro.uarch.btb import EMPTY_SET
from repro.uarch.cache import SetAssocCache
from repro.workloads.profiles import build_trace
from repro.workloads.trace import Trace


def _fresh_warm_state(program, params):
    llc = SetAssocCache(params.llc_bytes, params.llc_assoc,
                        params.line_bytes)
    for line in program.image:
        llc.insert(line)
    return llc.snapshot()


@pytest.mark.parametrize("engine", ["interpreter", "columnar"])
def test_interleaved_schemes_repeat_and_keep_shared_state(engine,
                                                           monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    params = MicroarchParams()
    trace = build_trace("nutch", 3000, seed=41)
    program = trace.generated.program
    warm = _warm_llc_state(trace, params)
    folds = _fold_sequences(trace)
    fold_copy = [list(seq) for seq in folds.seqs]
    assert _warm_llc_state(trace, params) is warm  # built once

    runs = []
    for _ in range(2):
        stats = {}
        for name in sorted(SCHEME_FACTORIES):
            scheme = build_scheme(name, params, trace.generated)
            result = engine_select.simulate(trace, scheme, params=params)
            stats[name] = dataclasses.asdict(result.stats)
        runs.append(stats)

    assert runs[0] == runs[1]
    assert _warm_llc_state(trace, params) is warm
    assert warm == _fresh_warm_state(program, params)
    assert _fold_sequences(trace) is folds
    assert [list(seq) for seq in folds.seqs] == fold_copy
    assert len(EMPTY_SET) == 0


def test_warm_state_is_keyed_on_llc_geometry():
    trace = build_trace("nutch", 1000, seed=42)
    default = MicroarchParams()
    small = dataclasses.replace(default, llc_bytes=default.llc_bytes // 4)
    big_state = _warm_llc_state(trace, default)
    small_state = _warm_llc_state(trace, small)
    assert len(small_state) == len(big_state) // 4
    assert small_state == _fresh_warm_state(trace.generated.program, small)


def test_no_program_means_cold_llc():
    built = build_trace("nutch", 1000, seed=43)
    trace = Trace(built.pc, built.ninstr, built.kind, built.taken,
                  built.target)
    assert _warm_llc_state(trace, MicroarchParams()) is None
