"""The exploration driver: budget-metered evaluation plus reporting.

:func:`explore` is the subsystem's entry point: it seeds an RNG, hands a
strategy an evaluation context, and folds everything the strategy
visited into an :class:`ExploreResult` (all evaluated points, in
evaluation order, plus the Pareto frontier).

**Budget semantics.**  ``budget`` bounds the number of *distinct
canonical simulation cells* the search may request — the simulations a
cold cache would have to run.  Charging requested cells rather than
actual engine executions keeps the schedule cache-independent: the same
invocation visits the same points in the same order whether the disk
cache is cold or warm, which is what makes seeded searches
bit-reproducible and repeated searches free (every cell is served from
the cache, observable via :func:`repro.core.sweep.simulation_meter`).
Shared cells are charged once — baselines dedupe across points, and a
point revisited at the same fidelity costs nothing.

**Output.**  ``render()`` is the human-facing frontier table (through
the existing reporting layer's :func:`~repro.experiments.reporting.
format_table`); ``to_jsonl()`` is the machine-facing stream — one line
per evaluated point plus a trailing summary line.  Neither includes the
actual simulation count, which depends on cache state; the CLI reports
it on stderr instead, keeping stdout bit-reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.metrics import arithmetic_mean, geometric_mean, speedup
from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.spec import DEFAULT_TRACE_BLOCKS, RunSpec
from repro.explore.frontier import EvaluatedPoint, Objective, \
    frontend_storage_bits, pareto_frontier, resolve_objectives
from repro.explore.space import ParamSpace, Point, point_dict
from repro.explore.strategies import BudgetExhausted, Strategy, \
    get_strategy


class _Evaluator:
    """The evaluation context handed to strategies (budget + caching).

    Charges the budget in distinct canonical cells, memoises repeated
    ``(point, fidelity)`` evaluations in-process, and records every
    distinct evaluation in order — the record the frontier and the JSONL
    stream are built from.
    """

    def __init__(self, space: ParamSpace,
                 objectives: Tuple[Objective, ...],
                 budget: Optional[int], n_blocks: int,
                 **overrides) -> None:
        self.space = space
        self.objectives = objectives
        self.budget = budget
        self.n_blocks = n_blocks
        self._overrides = overrides
        self._needs_baseline = any(obj.name == "speedup"
                                   for obj in objectives)
        self._charged: Set[RunSpec] = set()
        self._memo: Dict[Tuple[Point, int], EvaluatedPoint] = {}
        self.evaluated: List[EvaluatedPoint] = []

    @property
    def cells(self) -> int:
        """Distinct simulation cells charged against the budget so far."""
        return len(self._charged)

    def evaluate(self, point: Point,
                 n_blocks: Optional[int] = None) -> EvaluatedPoint:
        from repro.core.sweep import run_specs
        blocks = n_blocks if n_blocks is not None else self.n_blocks
        key = (point, blocks)
        memoised = self._memo.get(key)
        if memoised is not None:
            return memoised

        pairs = self.space.cell_specs(point, blocks)
        specs: List[RunSpec] = [cell for cell, _ in pairs]
        if self._needs_baseline:
            specs.extend(base for _, base in pairs)
        fresh = set(specs) - self._charged
        if self.budget is not None \
                and len(self._charged) + len(fresh) > self.budget:
            raise BudgetExhausted(
                f"point needs {len(fresh)} new cells but only "
                f"{self.budget - len(self._charged)} of the "
                f"{self.budget}-cell budget remain"
            )
        results = run_specs(specs, **self._overrides)
        missing = [spec for spec in specs if spec not in results]
        if missing:
            cell = missing[0]
            raise ExperimentError(
                f"cell {cell.workload}/{cell.scheme} was quarantined by "
                f"the fault-tolerant executor; exploration objectives "
                f"need every cell — rerun without --on-error "
                f"skip/degrade (or fix the failing cell) and try again"
            )
        self._charged.update(fresh)

        values: List[Tuple[str, float]] = []
        for objective in self.objectives:
            name = objective.name
            if name == "speedup":
                value = geometric_mean([
                    speedup(results[base], results[cell])
                    for cell, base in pairs
                ])
            elif name == "ipc":
                value = geometric_mean([
                    results[cell].ipc for cell, _ in pairs])
            elif name == "l1i_mpki":
                value = arithmetic_mean([
                    results[cell].l1i_mpki for cell, _ in pairs])
            elif name == "btb_mpki":
                value = arithmetic_mean([
                    results[cell].btb_mpki for cell, _ in pairs])
            elif name == "storage_bits":
                cell = pairs[0][0]
                value = float(frontend_storage_bits(
                    cell.scheme, cell.config, cell.params))
            else:  # pragma: no cover - resolve_objectives guards this
                raise ExperimentError(f"unhandled objective {name!r}")
            values.append((name, value))

        evaluated = EvaluatedPoint(point=point, n_blocks=blocks,
                                   objectives=tuple(values))
        self._memo[key] = evaluated
        self.evaluated.append(evaluated)
        return evaluated


@dataclass
class ExploreResult:
    """Everything one exploration produced.

    ``evaluated`` preserves evaluation order (the JSONL stream order);
    ``frontier`` is the non-dominated subset at each point's highest
    fidelity, best-first.  ``cells`` is the budget actually charged;
    ``simulations`` is how many of those cells the engine really ran
    this time (0 when the disk cache served everything) — reported out
    of band because it depends on cache state.  ``failures`` counts
    cells the fault-tolerant executor quarantined during the search
    (normally zero: a quarantined cell aborts the evaluation that
    needed it with a clear error).
    """

    space: ParamSpace
    strategy: str
    objectives: Tuple[Objective, ...]
    budget: Optional[int]
    seed: int
    n_blocks: int
    evaluated: List[EvaluatedPoint] = field(default_factory=list)
    frontier: List[EvaluatedPoint] = field(default_factory=list)
    cells: int = 0
    simulations: int = 0
    failures: int = 0

    def find(self, **assignment: Any) -> EvaluatedPoint:
        """The highest-fidelity evaluated point matching *assignment*.

        Matches on a subset of axes (``find(scheme="shotgun",
        btb_entries=1024)``); raises when nothing matches.
        """
        best: Optional[EvaluatedPoint] = None
        for candidate in self.evaluated:
            values = point_dict(candidate.point)
            if all(values.get(axis) == value
                   for axis, value in assignment.items()):
                if best is None or candidate.n_blocks > best.n_blocks:
                    best = candidate
        if best is None:
            raise ExperimentError(
                f"no evaluated point matches {assignment!r}"
            )
        return best

    def _frontier_keys(self) -> Set[Tuple[Point, int]]:
        return {(ep.point, ep.n_blocks) for ep in self.frontier}

    def to_jsonl(self) -> str:
        """One JSON line per evaluated point plus a summary line.

        Deterministic for a given (space, strategy, objectives, budget,
        seed, blocks) — cache state never changes a byte, which is the
        property the re-run acceptance test pins.
        """
        frontier_keys = self._frontier_keys()
        lines = []
        for index, ep in enumerate(self.evaluated):
            lines.append(json.dumps({
                "kind": "point",
                "index": index,
                "point": point_dict(ep.point),
                "n_blocks": ep.n_blocks,
                "objectives": ep.objective_dict(),
                "on_frontier": (ep.point, ep.n_blocks) in frontier_keys,
            }, sort_keys=False))
        lines.append(json.dumps({
            "kind": "summary",
            "space": self.space.name,
            "strategy": self.strategy,
            "objectives": [obj.name for obj in self.objectives],
            "budget": self.budget,
            "seed": self.seed,
            "n_blocks": self.n_blocks,
            "points": len(self.evaluated),
            "cells": self.cells,
            "frontier": [
                index for index, ep in enumerate(self.evaluated)
                if (ep.point, ep.n_blocks) in frontier_keys
            ],
        }, sort_keys=False))
        return "\n".join(lines)

    def render(self) -> str:
        """Frontier table plus search summary (existing reporting layer)."""
        directions = ", ".join(
            f"{obj.name} ({'max' if obj.maximize else 'min'})"
            for obj in self.objectives
        )
        header = (f"== Design-space exploration: {self.space.name} "
                  f"[{self.strategy}] ==")
        summary = (f"evaluated {len(self.evaluated)} points / "
                   f"{self.cells} simulation cells"
                   + (f" (budget {self.budget})"
                      if self.budget is not None else "")
                   + f", seed {self.seed}, {self.n_blocks} blocks")
        if not self.evaluated:
            return "\n".join([
                header, f"objectives: {directions}",
                "no points evaluated (budget too small for one point)",
                summary,
            ])
        axes = [dim.name for dim in self.space.dimensions]
        columns = axes + [obj.name for obj in self.objectives] + ["blocks"]
        rows = []
        for ep in self.frontier:
            values = point_dict(ep.point)
            row = [str(values[axis]) for axis in axes]
            for obj in self.objectives:
                value = ep.value(obj.name)
                row.append(f"{value:.0f}" if obj.name == "storage_bits"
                           else f"{value:.3f}")
            row.append(str(ep.n_blocks))
            rows.append(row)
        return "\n".join([
            header,
            f"objectives: {directions}",
            f"Pareto frontier ({len(self.frontier)} of "
            f"{len(self.evaluated)} evaluated points):",
            format_table(columns, rows),
            summary,
        ])


def explore(space: ParamSpace,
            strategy: Union[str, Strategy] = "random",
            objectives: Sequence[Union[str, Objective]] = (
                "speedup", "storage_bits"),
            budget: Optional[int] = None,
            n_blocks: Optional[int] = None,
            seed: int = 0,
            **overrides) -> ExploreResult:
    """Run one budgeted exploration of *space* and extract its frontier.

    Deterministic given ``(space, strategy, objectives, budget, seed,
    n_blocks)`` regardless of cache state *and* of the execution
    policy — *overrides* (``backend``, ``max_workers``, … as for
    :func:`repro.core.sweep.run_specs`) only decide where cells
    simulate; every evaluated cell flows through ``run_specs``, so
    repeats are served from the in-process memo and the persistent disk
    cache.
    """
    from repro.core.sweep import simulation_meter
    from repro.obs import metrics
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    resolved = resolve_objectives([
        obj.name if isinstance(obj, Objective) else obj
        for obj in objectives
    ])
    blocks = n_blocks if n_blocks is not None else DEFAULT_TRACE_BLOCKS
    if budget is not None and budget < 1:
        raise ExperimentError("explore budget must be at least one cell")
    evaluator = _Evaluator(space, resolved, budget, blocks, **overrides)
    rng = random.Random(seed)
    quarantines = metrics.counter("sweep.quarantines")
    quarantined_before = quarantines.value
    with simulation_meter() as meter:
        try:
            strategy.search(space, evaluator, rng)
        except BudgetExhausted:
            pass
        simulations = meter.count
    return ExploreResult(
        space=space,
        strategy=strategy.name,
        objectives=resolved,
        budget=budget,
        seed=seed,
        n_blocks=blocks,
        evaluated=list(evaluator.evaluated),
        frontier=pareto_frontier(evaluator.evaluated, resolved),
        cells=evaluator.cells,
        simulations=simulations,
        failures=quarantines.value - quarantined_before,
    )


__all__ = ["ExploreResult", "explore"]
