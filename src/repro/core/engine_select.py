"""Engine selection: interpreter (default) vs. columnar batched core.

One dispatch point (:func:`simulate`) sits between the sweep layer and
the engines.  It takes the engine by name: the
:class:`~repro.core.exec.ExecutionPolicy`'s ``engine`` (``--engine``,
or ``REPRO_ENGINE`` when the flag is unset), which ``run_specs``
resolves once per call and hands to every unit it dispatches.  The
default is the interpreter, preserving seed behaviour.

Selection is **output-neutral** by contract: the columnar engine is
bit-identical where it applies, and cells it cannot replay (run-ahead
schemes, custom predictors) silently fall back to the interpreter —
so neither the engine fingerprint's key material nor ``ENGINE_VERSION``
includes the selection.  The differential test suite and the golden
snapshots enforce the contract.  Fallbacks are visible, not silent, in
telemetry: ``engine.columnar_cells`` / ``engine.fallback_cells`` /
``engine.fallback.<scheme>`` counters surface in the run manifest's
engine section.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MicroarchParams
from repro.core import frontend as _interpreter
from repro.core.metrics import SimulationResult
from repro.prefetch.base import Scheme
from repro.workloads.trace import Trace


def simulate(trace: Trace, scheme: Scheme,
             params: Optional[MicroarchParams] = None,
             predictor=None, l1d_misses_per_kinstr: float = 10.0,
             warmup_fraction: float = 0.1, *,
             engine: str) -> SimulationResult:
    """Simulate one cell on *engine* (a validated policy engine name).

    Drop-in replacement for :func:`repro.core.frontend.simulate`; the
    columnar engine is used only when selected *and* eligible, so the
    result is identical either way.
    """
    if engine == "columnar":
        # The columnar core and the control replays it imports load with
        # the first columnar cell: start-up and interpreter runs skip them.
        from repro.core import engine_columnar
        # Counter-only accounting (no behaviour change); workers ship
        # these deltas back to the parent for the run manifest.
        # repro: allow[RPR002] -- read-only telemetry counters
        from repro.obs import metrics as _obs
        if engine_columnar.supports(scheme, predictor):
            _obs.counter("engine.columnar_cells").inc()
            return engine_columnar.simulate_columnar(
                trace, scheme, params=params, predictor=predictor,
                l1d_misses_per_kinstr=l1d_misses_per_kinstr,
                warmup_fraction=warmup_fraction)
        _obs.counter("engine.fallback_cells").inc()
        _obs.counter(f"engine.fallback.{scheme.name}").inc()
    return _interpreter.simulate(
        trace, scheme, params=params, predictor=predictor,
        l1d_misses_per_kinstr=l1d_misses_per_kinstr,
        warmup_fraction=warmup_fraction)
