"""The decoupled front-end timing engine and its metrics.

:class:`FrontEnd` replays a retire-order trace against a control-flow
delivery scheme (see :mod:`repro.prefetch`), accounting cycles for L1-I
miss stalls, BTB-fill-induced fetch starvation and pipeline flushes —
the phenomena the paper's evaluation is built on.  DESIGN.md Section 4
documents the timing model in full.
"""

from repro.core.metrics import EngineStats, SimulationResult, \
    frontend_stall_coverage, speedup
from repro.core.frontend import FrontEnd, simulate
from repro.core.sweep import run_spec, run_specs

__all__ = [
    "EngineStats",
    "SimulationResult",
    "frontend_stall_coverage",
    "speedup",
    "FrontEnd",
    "simulate",
    "run_spec",
    "run_specs",
]
