"""SMARTS-style sampled simulation: window statistics and aggregation.

The paper measures with the SMARTS methodology [19]: many short
measurement windows drawn across billions of instructions, each preceded
by warm-up, aggregated into a mean with a confidence interval.  The
equivalent for reduced traces is independent trace windows — different
executor seeds of the same program, each simulated with its own warm-up.

Since PR 3 the windows themselves are ordinary
:class:`~repro.experiments.spec.RunSpec` cells (expanded by a
:class:`~repro.experiments.spec.SampleSpec`), so they flow through
:func:`repro.core.sweep.run_specs` — every window is cached individually
in the persistent disk cache and fans across cores like any grid cell.
This module keeps the statistics (:class:`SampleStats`,
:func:`aggregate`) and the original :func:`sampled_comparison`
convenience, now a thin wrapper over that shared path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import MicroarchParams, SchemeConfig
from repro.errors import SimulationError

#: Student-t 97.5% quantiles for small sample sizes (df = 1..30).
#: Beyond the table the t distribution is within 0.5% of the normal
#: quantile, so :func:`aggregate` falls back to 1.96 rather than
#: clamping to the df=30 entry.
_T_TABLE = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)

#: Normal 97.5% quantile, used for df > 30.
_Z_975 = 1.96


def t_quantile_975(df: int) -> float:
    """Two-sided 95% t quantile for *df* degrees of freedom.

    Tabulated for df 1..30; larger df converge to the normal quantile
    (1.96) instead of clamping to the last table entry (2.042), so wide
    window counts no longer overstate their confidence intervals.
    """
    if df < 1:
        raise SimulationError("t quantile needs at least 1 degree of freedom")
    if df <= len(_T_TABLE):
        return _T_TABLE[df - 1]
    return _Z_975


@dataclass(frozen=True)
class SampleStats:
    """Mean, standard deviation and a 95% confidence half-width."""

    mean: float
    stdev: float
    ci95: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} +/- {self.ci95:.3f} (n={self.n})"


def aggregate(values: Sequence[float]) -> SampleStats:
    """Summarise per-window values with a t-based 95% interval."""
    values = list(values)
    n = len(values)
    if n == 0:
        raise SimulationError("cannot aggregate zero samples")
    mean = sum(values) / n
    if n == 1:
        return SampleStats(mean=mean, stdev=0.0, ci95=0.0, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stdev = math.sqrt(variance)
    t = t_quantile_975(n - 1)
    return SampleStats(mean=mean, stdev=stdev,
                       ci95=t * stdev / math.sqrt(n), n=n)


@dataclass(frozen=True)
class SampledComparison:
    """Aggregated speedup/coverage of one scheme over the baseline."""

    workload: str
    scheme: str
    speedup: SampleStats
    coverage: SampleStats


def sampled_comparison(
    workload: str,
    scheme_name: str,
    n_windows: int = 4,
    window_blocks: int = 15_000,
    config: Optional[SchemeConfig] = None,
    params: Optional[MicroarchParams] = None,
    use_cache: bool = True,
) -> SampledComparison:
    """Speedup/coverage of *scheme_name* across independent windows.

    Each window is an independently-seeded execution of the workload's
    program (window ``i`` uses executor seed ``1000 + i``), so the
    confidence interval reflects genuine run-to-run variation rather
    than slicing artefacts.  Windows are paired: speedup in window ``i``
    compares against the baseline's run of the *same* window seed, which
    removes the shared window-to-window variance from the ratio.

    The windows are ordinary RunSpec cells executed through
    :func:`repro.core.sweep.run_specs`, so they hit the persistent disk
    cache individually and fan across cores; a repeated comparison
    performs zero simulations.
    """
    if n_windows < 1:
        raise SimulationError("need at least one sample window")
    from repro.core.metrics import frontend_stall_coverage, speedup
    from repro.core.sweep import run_specs
    # repro: allow[RPR002] -- frozen spec value types; keys live in diskcache
    from repro.experiments.spec import RunSpec, SampleSpec

    sample = SampleSpec(n_windows=n_windows, window_blocks=window_blocks)
    cell_windows = sample.window_specs(RunSpec(
        workload=workload, scheme=scheme_name, config=config, params=params,
    ))
    base_windows = sample.window_specs(RunSpec(
        workload=workload, scheme="baseline", params=params,
    ))
    results = run_specs([*cell_windows, *base_windows], use_cache=use_cache)

    speedups: List[float] = []
    coverages: List[float] = []
    for cell_spec, base_spec in zip(cell_windows, base_windows):
        cell = results[cell_spec]
        base = results[base_spec]
        speedups.append(speedup(base, cell))
        coverages.append(frontend_stall_coverage(base, cell))
    return SampledComparison(
        workload=workload.lower(),
        scheme=scheme_name.lower(),
        speedup=aggregate(speedups),
        coverage=aggregate(coverages),
    )
