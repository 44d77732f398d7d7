"""Declarative experiment specifications: the RunSpec/GridSpec layer.

Every experiment in the paper is a grid of simulations plus a little
arithmetic on the results.  This module makes that structure *data*:

* :class:`RunSpec` — one simulation cell (workload × scheme/config ×
  params × trace length/seed), frozen and hashable.  Its canonical form
  is the key for the in-process memo in :mod:`repro.core.sweep` and for
  the persistent disk cache (:mod:`repro.core.diskcache`), so any two
  paths that describe the same simulation share one result.
* :class:`GridSpec` — a labelled (row × column) grid of cells, each
  optionally paired with a baseline cell, plus a named derived-metric
  reducer (speedup-over-baseline, stall coverage, MPKI, ...) and an
  optional geomean/avg summary row.  :func:`run_grid_spec` turns a
  GridSpec into a rendered :class:`ExperimentResult` through the shared
  cached/parallel sweep path.
* :class:`SampleSpec` — the SMARTS-style sampling axis: a sampled grid
  cell expands into N independently-seeded window RunSpecs that flow
  through the same sweep path (each window is cached individually and
  fans across cores), and the per-window metric values aggregate into a
  mean with a 95% confidence interval
  (:class:`~repro.core.sampling.SampleStats`) surfaced in tables and
  JSON output.
* :class:`TableSpec` — trace-analysis experiments (Table 1, Figures 3
  and 4) that characterise traces without running the timing engine,
  expressed as rows of named analyses.

Experiment modules declare a spec and (at most) a small post-processing
hook; the registry and the ``python -m repro`` CLI run them uniformly.
DESIGN.md Section 8 documents the layer and how to add an experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import MicroarchParams, SchemeConfig
from repro.config.schemes import ShotgunSizes
from repro.core.sampling import SampleStats, aggregate
from repro.core.metrics import (
    SimulationResult,
    arithmetic_mean,
    frontend_stall_coverage,
    geometric_mean,
    speedup,
)
from repro.errors import ExperimentError
from repro.experiments.reporting import ExperimentResult

#: Default trace length (dynamic basic blocks) for experiment runs.
#: Chosen so that a full six-workload, three-scheme comparison finishes
#: in minutes on a laptop while statistics are stable (DESIGN.md:
#: "reduced traces").
DEFAULT_TRACE_BLOCKS = 120_000


# ---------------------------------------------------------------------------
# RunSpec: one simulation cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One simulation: workload × scheme/config × params × length/seed.

    ``config``/``params`` default to the scheme's/machine's reference
    configuration; ``n_blocks=None`` is a placeholder filled in when the
    owning spec is executed (so experiment specs stay static data while
    the CLI's ``--blocks`` still applies).  :meth:`canonical` resolves
    every default, yielding the unique hashable form that cache layers
    key off.
    """

    workload: str
    scheme: str
    config: Optional[SchemeConfig] = None
    params: Optional[MicroarchParams] = None
    n_blocks: Optional[int] = None
    seed: int = 0

    def canonical(self, n_blocks: Optional[int] = None) -> "RunSpec":
        """The fully-resolved, normalised form of this spec.

        Defaults are filled (workload and scheme names lowered — both
        are case-insensitive downstream — reference config and params
        substituted, trace length resolved), so two specs that describe
        the same simulation canonicalise to equal — and equally
        hashable — values.  Idempotent.
        """
        scheme = self.scheme.lower()
        blocks = self.n_blocks
        if blocks is None:
            blocks = n_blocks if n_blocks is not None else DEFAULT_TRACE_BLOCKS
        return RunSpec(
            workload=self.workload.lower(),
            scheme=scheme,
            config=self.config if self.config is not None
            else SchemeConfig(name=scheme),
            params=self.params if self.params is not None
            else MicroarchParams(),
            n_blocks=blocks,
            seed=self.seed,
        )

    def disk_key(self) -> str:
        """Content address of this cell in the persistent disk cache."""
        from repro.core import diskcache
        return diskcache.spec_key(self.canonical())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (round-trips via from_dict).

        Defaults resolve through :meth:`canonical`, but an
        ``n_blocks=None`` placeholder is preserved so serialised specs
        stay parametric in the trace length.
        """
        spec = self.canonical()
        return {
            "workload": spec.workload,
            "scheme": spec.scheme,
            "config": asdict(spec.config),
            "params": asdict(spec.params),
            "n_blocks": self.n_blocks,
            "seed": spec.seed,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        config = dict(payload["config"])
        config["shotgun_sizes"] = ShotgunSizes(**config["shotgun_sizes"])
        return RunSpec(
            workload=payload["workload"],
            scheme=payload["scheme"],
            config=SchemeConfig(**config),
            params=MicroarchParams(**payload["params"]),
            n_blocks=payload["n_blocks"],
            seed=payload["seed"],
        )


def transform_spec(spec: RunSpec, *,
                   scheme: Optional[str] = None,
                   config: Optional[Mapping[str, Any]] = None,
                   params: Optional[Mapping[str, Any]] = None) -> RunSpec:
    """The params-transform hook: derive a new cell from *spec*.

    Grid axes that sweep a *configuration dimension* rather than a
    scheme (the colocation study's per-degree LLC share, every axis of
    the :mod:`repro.explore` design spaces) are all the same operation:
    resolve the spec's default :class:`SchemeConfig`/
    :class:`MicroarchParams` and replace named fields on top.  ``scheme``
    renames the built scheme (the config's ``name`` follows unless the
    ``config`` overrides pin it); ``config``/``params`` are field->value
    mappings applied through the dataclasses' validating constructors,
    so an invalid value raises :class:`~repro.errors.ConfigError` at
    transform time, not deep inside a run.  The ``n_blocks`` placeholder
    is preserved, keeping transformed specs parametric in trace length.
    """
    name = (scheme if scheme is not None else spec.scheme).lower()
    base_config = spec.config if spec.config is not None \
        else SchemeConfig(name=name)
    base_params = spec.params if spec.params is not None \
        else MicroarchParams()
    config_overrides = dict(config or {})
    if scheme is not None:
        config_overrides.setdefault("name", name)
    new_config = replace(base_config, **config_overrides) \
        if config_overrides else base_config
    new_params = base_params.with_overrides(**dict(params)) \
        if params else base_params
    return replace(spec, scheme=name, config=new_config, params=new_params)


# ---------------------------------------------------------------------------
# SampleSpec: the SMARTS-style sampling axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    """Sampled-simulation axis: N independently-seeded trace windows.

    A sampled cell is measured as ``n_windows`` separate simulations of
    the same (workload, scheme, config, params) cell, each replaying an
    independently-seeded trace window (window ``i`` uses executor seed
    ``seed_base + i``), so the spread across windows reflects genuine
    run-to-run variation.  ``window_blocks=None`` splits the cell's
    trace budget evenly across the windows (``ceil(n_blocks /
    n_windows)`` — SMARTS: the same measured volume, distributed), so a
    sampled run costs roughly what the unsampled run does; an explicit
    value pins every window's length instead.

    Windows are ordinary :class:`RunSpec` cells: they flow through
    :func:`repro.core.sweep.run_specs`, hit the persistent disk cache
    individually (the window seed is part of the key material) and fan
    across cores like any grid cell.
    """

    n_windows: int = 4
    window_blocks: Optional[int] = None
    seed_base: int = 1000

    def __post_init__(self) -> None:
        if self.n_windows < 1:
            raise ExperimentError("SampleSpec needs at least one window")
        if self.window_blocks is not None and self.window_blocks < 1:
            raise ExperimentError("window_blocks must be positive")
        if self.seed_base < 1:
            raise ExperimentError(
                "seed_base must be >= 1 (seed 0 selects the profile's "
                "reference trace, which windows must not alias)"
            )

    def resolve_window_blocks(self, n_blocks: int) -> int:
        """Length of each window given the cell's resolved trace budget."""
        if self.window_blocks is not None:
            return self.window_blocks
        return max(1, -(-n_blocks // self.n_windows))

    def window_specs(self, spec: RunSpec,
                     n_blocks: Optional[int] = None) -> List[RunSpec]:
        """The N canonical window cells that measure *spec* sampled.

        The windows override the cell's own seed — sampling replaces a
        single reference-seed run with an independently-seeded ensemble.
        """
        canonical = spec.canonical(n_blocks)
        blocks = self.resolve_window_blocks(canonical.n_blocks)
        return [
            replace(canonical, n_blocks=blocks, seed=self.seed_base + i)
            for i in range(self.n_windows)
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (round-trips via from_dict)."""
        return {
            "n_windows": self.n_windows,
            "window_blocks": self.window_blocks,
            "seed_base": self.seed_base,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SampleSpec":
        """Rebuild a sample axis from :meth:`to_dict` output."""
        return SampleSpec(
            n_windows=payload["n_windows"],
            window_blocks=payload.get("window_blocks"),
            seed_base=payload.get("seed_base", 1000),
        )


#: Named CI-aware reducers over per-window metric values.  ``mean`` and
#: ``ci95`` are the two halves of the :class:`SampleStats` a sampled
#: grid surfaces per cell; the CLI's sampled sweep applies them to every
#: headline metric.
SAMPLE_REDUCERS: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda values: aggregate(values).mean,
    "ci95": lambda values: aggregate(values).ci95,
}


# ---------------------------------------------------------------------------
# Derived-metric and summary reducers
# ---------------------------------------------------------------------------

def _require_baseline(base: Optional[SimulationResult],
                      metric: str) -> SimulationResult:
    if base is None:
        raise ExperimentError(
            f"metric {metric!r} needs a baseline cell, but the grid "
            "cell declares none"
        )
    return base


#: Named derived-metric reducers: (cell result, baseline result) -> value.
#: Baseline-relative metrics raise when the cell has no baseline.
METRICS: Dict[str, Callable[[SimulationResult, Optional[SimulationResult]],
                            float]] = {
    "speedup": lambda res, base: speedup(
        _require_baseline(base, "speedup"), res),
    "stall_coverage": lambda res, base: frontend_stall_coverage(
        _require_baseline(base, "stall_coverage"), res),
    "prefetch_accuracy": lambda res, base: res.prefetch_accuracy,
    "l1d_fill_latency": lambda res, base: res.l1d_fill_latency,
    "ipc": lambda res, base: res.ipc,
    "l1i_mpki": lambda res, base: res.l1i_mpki,
    "btb_mpki": lambda res, base: res.btb_mpki,
}

#: Named summary-row reducers for the paper's Gmean/Avg rows.
SUMMARIES: Dict[str, Callable[[Sequence[float]], float]] = {
    "gmean": geometric_mean,
    "avg": arithmetic_mean,
}


# ---------------------------------------------------------------------------
# GridSpec: a labelled grid of cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One labelled grid cell: its spec plus an optional baseline spec."""

    row: str
    col: str
    spec: RunSpec
    baseline: Optional[RunSpec] = None


@dataclass(frozen=True)
class GridSpec:
    """A declarative experiment: labelled cells plus derived metrics.

    ``columns`` fixes column order; rows render in first-appearance
    order of ``cells``.  ``metric`` names a :data:`METRICS` reducer
    applied per cell; ``summary`` optionally names a :data:`SUMMARIES`
    reducer appended as the paper's Gmean/Avg row.  ``chart_baseline``
    becomes the result's structured ``baseline`` field (the value bars
    grow from, e.g. 1.0 for speedups).  ``sample`` switches the grid to
    SMARTS-style sampled measurement: every cell (and its baseline)
    expands into that :class:`SampleSpec`'s windows, the metric is
    computed per window (paired with the baseline's same-seed window)
    and each table cell becomes a mean with a 95% confidence interval.
    """

    experiment_id: str
    title: str
    columns: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    metric: str = "speedup"
    summary: Optional[str] = None
    summary_label: str = ""
    value_format: str = "{:.3f}"
    notes: str = ""
    chart_baseline: Optional[float] = None
    sample: Optional[SampleSpec] = None

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ExperimentError(
                f"{self.experiment_id}: unknown metric {self.metric!r}; "
                f"choose from {sorted(METRICS)}"
            )
        if self.summary is not None and self.summary not in SUMMARIES:
            raise ExperimentError(
                f"{self.experiment_id}: unknown summary {self.summary!r}; "
                f"choose from {sorted(SUMMARIES)}"
            )

    def row_labels(self) -> List[str]:
        """Row labels in render order (first appearance in ``cells``)."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.row not in seen:
                seen.append(cell.row)
        return seen

    def run_specs(self, n_blocks: Optional[int] = None) -> List[RunSpec]:
        """Every distinct canonical simulation the grid needs.

        With a ``sample`` axis each cell contributes its window specs
        instead of its single reference-seed spec.
        """
        unique: Dict[RunSpec, None] = {}
        for cell in self.cells:
            for spec in (cell.spec, cell.baseline):
                if spec is None:
                    continue
                if self.sample is not None:
                    for window in self.sample.window_specs(spec, n_blocks):
                        unique.setdefault(window)
                else:
                    unique.setdefault(spec.canonical(n_blocks))
        return list(unique)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (round-trips via from_dict)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "cells": [
                {
                    "row": cell.row,
                    "col": cell.col,
                    "spec": cell.spec.to_dict(),
                    "baseline": cell.baseline.to_dict()
                    if cell.baseline is not None else None,
                }
                for cell in self.cells
            ],
            "metric": self.metric,
            "summary": self.summary,
            "summary_label": self.summary_label,
            "value_format": self.value_format,
            "notes": self.notes,
            "chart_baseline": self.chart_baseline,
            "sample": self.sample.to_dict()
            if self.sample is not None else None,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "GridSpec":
        """Rebuild a grid spec from :meth:`to_dict` output."""
        cells = tuple(
            Cell(
                row=raw["row"],
                col=raw["col"],
                spec=RunSpec.from_dict(raw["spec"]),
                baseline=RunSpec.from_dict(raw["baseline"])
                if raw.get("baseline") is not None else None,
            )
            for raw in payload["cells"]
        )
        return GridSpec(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            columns=tuple(payload["columns"]),
            cells=cells,
            metric=payload["metric"],
            summary=payload.get("summary"),
            summary_label=payload.get("summary_label", ""),
            value_format=payload.get("value_format", "{:.3f}"),
            notes=payload.get("notes", ""),
            chart_baseline=payload.get("chart_baseline"),
            sample=SampleSpec.from_dict(payload["sample"])
            if payload.get("sample") is not None else None,
        )

    def with_blocks(self, n_blocks: int) -> "GridSpec":
        """A copy with every cell's trace length pinned to *n_blocks*."""
        cells = tuple(
            Cell(
                row=cell.row, col=cell.col,
                spec=replace(cell.spec, n_blocks=n_blocks),
                baseline=replace(cell.baseline, n_blocks=n_blocks)
                if cell.baseline is not None else None,
            )
            for cell in self.cells
        )
        return replace(self, cells=cells)


def run_grid_spec(spec: GridSpec, n_blocks: Optional[int] = None,
                  use_cache: bool = True,
                  post: Optional[Callable[[ExperimentResult],
                                          ExperimentResult]] = None,
                  **overrides) -> ExperimentResult:
    """Execute a :class:`GridSpec` through the shared sweep path.

    Distinct canonical cells (baselines dedupe naturally) run through
    :func:`repro.core.sweep.run_specs` — *overrides* (``backend``,
    ``max_workers``, ``progress``, … named like the
    :class:`~repro.core.exec.ExecutionPolicy` fields) apply to this grid
    only — and hit the in-process/disk caches; the named metric reducer
    then folds raw simulation results into the experiment's table.

    With a ``sample`` axis, every cell's windows run through the same
    path; the metric is evaluated once per window (cell window *i*
    against the baseline's window *i* — pairing on the shared window
    seed cancels common trace variance out of ratio metrics) and each
    table cell carries the window mean plus its 95% confidence
    half-width.
    """
    from repro.core.sweep import run_specs
    results = run_specs(spec.run_specs(n_blocks), use_cache=use_cache,
                        **overrides)
    metric = METRICS[spec.metric]

    def lookup(run):
        try:
            return results[run]
        except KeyError:
            raise ExperimentError(
                f"{spec.experiment_id}: cell {run.workload}/{run.scheme} "
                f"was quarantined by the fault-tolerant executor; "
                f"experiment tables need every cell — rerun without "
                f"--on-error skip/degrade (or fix the failing cell)"
            ) from None

    values: Dict[str, Dict[str, float]] = {}
    half_widths: Dict[str, Dict[str, float]] = {}
    for cell in spec.cells:
        if spec.sample is not None:
            windows = spec.sample.window_specs(cell.spec, n_blocks)
            base_windows = spec.sample.window_specs(cell.baseline, n_blocks) \
                if cell.baseline is not None else [None] * len(windows)
            stats: SampleStats = aggregate([
                metric(lookup(window),
                       lookup(base) if base is not None else None)
                for window, base in zip(windows, base_windows)
            ])
            values.setdefault(cell.row, {})[cell.col] = stats.mean
            half_widths.setdefault(cell.row, {})[cell.col] = stats.ci95
        else:
            res = lookup(cell.spec.canonical(n_blocks))
            base = lookup(cell.baseline.canonical(n_blocks)) \
                if cell.baseline is not None else None
            values.setdefault(cell.row, {})[cell.col] = metric(res, base)

    result = ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        columns=list(spec.columns),
        value_format=spec.value_format,
        notes=spec.notes,
        baseline=spec.chart_baseline,
        samples=spec.sample.n_windows if spec.sample is not None else None,
    )
    for row in spec.row_labels():
        row_values = values[row]
        missing = [c for c in spec.columns if c not in row_values]
        if missing:
            raise ExperimentError(
                f"{spec.experiment_id}: row {row!r} has no cell for "
                f"columns {missing}"
            )
        result.add_row(
            row, [row_values[c] for c in spec.columns],
            ci=[half_widths[row][c] for c in spec.columns]
            if row in half_widths else None,
        )
    if spec.summary is not None:
        reduce = SUMMARIES[spec.summary]
        result.set_summary(spec.summary_label, [
            reduce(result.column(c)) for c in spec.columns
        ])
    if post is not None:
        result = post(result)
    return result


# ---------------------------------------------------------------------------
# TableSpec: trace-analysis experiments (no timing engine)
# ---------------------------------------------------------------------------

def _analysis_btb_mpki_vs_paper(trace, paper_mpki: float) -> List[float]:
    from repro.workloads.analysis import btb_mpki
    return [btb_mpki(trace), paper_mpki]


def _analysis_region_cdf(trace, distances: Sequence[int],
                         max_distance: int) -> List[float]:
    from repro.workloads.analysis import region_access_distribution
    cdf = region_access_distribution(trace, max_distance=max_distance)
    return [float(cdf[d]) for d in distances]


def _analysis_branch_coverage(trace, points: Sequence[int],
                              unconditional_only: bool) -> List[float]:
    from repro.workloads.analysis import branch_coverage_curve
    _, coverage = branch_coverage_curve(
        trace, tuple(points), unconditional_only=unconditional_only)
    return list(coverage)


#: Named trace analyses: (trace, **kwargs) -> one value per column.
TRACE_ANALYSES: Dict[str, Callable[..., List[float]]] = {
    "btb_mpki_vs_paper": _analysis_btb_mpki_vs_paper,
    "region_cdf": _analysis_region_cdf,
    "branch_coverage": _analysis_branch_coverage,
}


@dataclass(frozen=True)
class TraceRow:
    """One table row: a named analysis of one workload's trace.

    ``args`` is a tuple of (name, value) pairs so the row stays
    hashable; values must be JSON-compatible.
    """

    row: str
    workload: str
    analysis: str
    args: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class TableSpec:
    """A declarative trace-characterisation experiment."""

    experiment_id: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[TraceRow, ...]
    value_format: str = "{:.3f}"
    notes: str = ""
    chart_baseline: Optional[float] = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.analysis not in TRACE_ANALYSES:
                raise ExperimentError(
                    f"{self.experiment_id}: unknown analysis "
                    f"{row.analysis!r}; choose from {sorted(TRACE_ANALYSES)}"
                )


def run_table_spec(spec: TableSpec, n_blocks: Optional[int] = None,
                   post: Optional[Callable[[ExperimentResult],
                                           ExperimentResult]] = None,
                   ) -> ExperimentResult:
    """Execute a :class:`TableSpec` (traces are memoised per workload).

    The rows' programs are built first by the planned build stage
    (:func:`~repro.workloads.profiles.build_programs`), on every usable
    CPU when the execution policy in scope allows a process pool.
    """
    from repro.workloads.profiles import build_programs, build_trace
    build_programs(row.workload for row in spec.rows)
    blocks = n_blocks if n_blocks is not None else DEFAULT_TRACE_BLOCKS
    result = ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        columns=list(spec.columns),
        value_format=spec.value_format,
        notes=spec.notes,
        baseline=spec.chart_baseline,
    )
    for row in spec.rows:
        trace = build_trace(row.workload, blocks, seed=row.seed)
        values = TRACE_ANALYSES[row.analysis](trace, **dict(row.args))
        result.add_row(row.row, values)
    if post is not None:
        result = post(result)
    return result


__all__ = [
    "DEFAULT_TRACE_BLOCKS",
    "RunSpec",
    "transform_spec",
    "SampleSpec",
    "Cell",
    "GridSpec",
    "TraceRow",
    "TableSpec",
    "METRICS",
    "SUMMARIES",
    "SAMPLE_REDUCERS",
    "TRACE_ANALYSES",
    "run_grid_spec",
    "run_table_spec",
]
