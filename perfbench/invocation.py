"""One benchmark invocation: a fresh interpreter doing one workload's work.

``run.py`` starts this file once per measured invocation, the way a user
starts ``python -m repro``: a new process with empty program, trace and
result memos.  The process

1. imports ``repro`` and prepares its result cache (the set-up time),
2. runs the workload's work (the wall, CPU and peak-memory time),
3. builds the invocation's ``repro.obs`` run manifest from the metrics
   delta and spans, exactly as the CLI does,
4. optionally recomputes every cell through a second execution path
   (the reference digest), and
5. prints one JSON object on its last stdout line.

Usage (normally only through ``run.py``)::

    python3 perfbench/invocation.py --workload report-pool --seed 1 \
        --cache .perfbench-work/cache --spawned <CLOCK_MONOTONIC>

``--setup-only`` stops after step 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict, replace
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload name -> (kind, backend, engine, fewest invocations per run).
#: The kinds are defined below.  A report-pool invocation takes about as
#: long as a run's window, so it sets its own minimum: host speed drifts
#: over tens of seconds, and one invocation alone reads that drift.
WORKLOADS = {
    "report-pool": ("report", "process", "interpreter", 3),
    "sampled-columnar": ("sampled", "serial", "columnar", 1),
}

#: report-pool: Table 1, then the Figure 7 grid, at this trace length.
REPORT_BLOCKS = 4_000

#: sampled-columnar: two light-to-build workloads x six schemes, each
#: cell measured as SAMPLED_WINDOWS windows sharing SAMPLED_BLOCKS.
SAMPLED_WORKLOADS = ("flatstream", "nutch")
SAMPLED_SCHEMES = ("baseline", "fdip", "confluence", "boomerang",
                   "shotgun", "ideal")
SAMPLED_WINDOWS = 16
SAMPLED_BLOCKS = 16_000

def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def trace_seed(seed: int) -> int:
    """The repro trace seed a benchmark seed selects (never the 0 alias).

    Sampled windows use ``trace_seed(seed) + i``, so two benchmark seeds
    never share a window while a run has fewer than 1000 windows.
    """
    return 1000 * (seed + 1)


# ---------------------------------------------------------------------------
# Seeded inputs


def _seeded_run(spec, seed: int):
    return None if spec is None else replace(spec, seed=trace_seed(seed))


def seeded_grid(grid, seed: int):
    """A GridSpec whose cells (and sampled windows) use the seed's traces."""
    from repro.experiments.spec import Cell
    cells = tuple(Cell(row=cell.row, col=cell.col,
                       spec=_seeded_run(cell.spec, seed),
                       baseline=_seeded_run(cell.baseline, seed))
                  for cell in grid.cells)
    sample = replace(grid.sample, seed_base=trace_seed(seed)) \
        if grid.sample is not None else None
    return replace(grid, cells=cells, sample=sample)


def seeded_table(table, seed: int):
    rows = tuple(replace(row, seed=trace_seed(seed)) for row in table.rows)
    return replace(table, rows=rows)


def sampled_specs(seed: int) -> Dict[Any, List[Any]]:
    """The sampled sweep's window cells, keyed by (workload, scheme)."""
    from repro.experiments.spec import RunSpec, SampleSpec
    sample = SampleSpec(n_windows=SAMPLED_WINDOWS,
                        seed_base=trace_seed(seed))
    return {(workload, scheme): sample.window_specs(
                RunSpec(workload=workload, scheme=scheme), SAMPLED_BLOCKS)
            for workload in SAMPLED_WORKLOADS for scheme in SAMPLED_SCHEMES}


# ---------------------------------------------------------------------------
# Output check


def cell_lines(results: Dict[Any, Any]) -> Dict[str, str]:
    """``{cell: statistics}`` as canonical JSON, for digests."""
    return {json.dumps(spec.to_dict(), sort_keys=True):
            json.dumps(asdict(result.stats), sort_keys=True)
            for spec, result in results.items()}


def digest(lines: Dict[str, str]) -> str:
    material = "\n".join(f"{cell}\t{stats}"
                         for cell, stats in sorted(lines.items()))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class Capture:
    """Keeps every result collection ``run_specs`` returns.

    Installed in every invocation (traced or not): it adds one function
    call per sweep and is how the digest sees the experiments' cells.
    """

    def __init__(self) -> None:
        from repro.core import sweep
        self.collections: List[Dict[Any, Any]] = []
        original = sweep.run_specs

        def capturing(*args, **kwargs):
            results = original(*args, **kwargs)
            self.collections.append(results)
            return results

        sweep.run_specs = capturing

    def take(self) -> Dict[Any, Any]:
        merged: Dict[Any, Any] = {}
        for results in self.collections:
            merged.update(results)
        self.collections = []
        return merged


# ---------------------------------------------------------------------------
# The workloads' work


def _experiment(name: str):
    from repro.obs import tracing
    return tracing.span("bench.experiment", experiment=name)


def run_report(seed: int, backend: str, capture: Capture) -> Dict[Any, Any]:
    from repro.experiments import figure7, table1
    from repro.experiments.spec import run_grid_spec, run_table_spec
    with _experiment("table1"):
        run_table_spec(seeded_table(table1.SPEC, seed),
                       n_blocks=REPORT_BLOCKS)
    with _experiment("figure7"):
        run_grid_spec(seeded_grid(figure7.SPEC, seed),
                      n_blocks=REPORT_BLOCKS, backend=backend,
                      max_workers=nproc())
    return capture.take()


def run_sampled(seed: int, backend: str,
                capture: Capture) -> Dict[Any, Any]:
    """The sampled sweep: windows through one run_specs, then mean/ci95.

    The per-cell reduce is the work the CLI's sampled sweep does; its
    values are not needed here, only its cost.
    """
    from repro.core.metrics import speedup
    from repro.core.sweep import run_specs
    from repro.experiments.spec import SAMPLE_REDUCERS
    cells = sampled_specs(seed)
    with _experiment("sampled-sweep"):
        results = run_specs([spec for windows in cells.values()
                             for spec in windows], backend=backend)
        for (workload, _), windows in cells.items():
            values = [speedup(results[base], results[window])
                      for base, window in zip(cells[workload, "baseline"],
                                              windows)]
            SAMPLE_REDUCERS["mean"](values)
            SAMPLE_REDUCERS["ci95"](values)
    return capture.take()


def reference_results(kind: str, seed: int) -> Dict[Any, Any]:
    """Every cell recomputed, uncached, on the serial interpreter.

    The second execution path of the output check: report-pool's pool
    must equal serial, and sampled-columnar's columnar engine must equal
    the interpreter.  Programs and traces are already memoised, so this
    costs only the simulations.
    """
    from repro.core.sweep import run_specs
    from repro.experiments import figure7
    if kind == "report":
        specs = seeded_grid(figure7.SPEC, seed).run_specs(REPORT_BLOCKS)
    else:
        specs = [spec for windows in sampled_specs(seed).values()
                 for spec in windows]
    selected = os.environ["REPRO_ENGINE"]
    os.environ["REPRO_ENGINE"] = "interpreter"
    try:
        return run_specs(specs, use_cache=False, backend="serial")
    finally:
        os.environ["REPRO_ENGINE"] = selected


# ---------------------------------------------------------------------------
# Entry points


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child (MB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def prepare(cache: str) -> Optional[str]:
    """Import repro and create the empty cache; returns a guard failure."""
    import numpy  # noqa: F401  (part of the import cost users pay)
    import repro.experiments.registry  # noqa: F401
    import repro.core.sweep  # noqa: F401
    os.makedirs(cache, exist_ok=True)
    if os.listdir(cache):
        return "cold cache directory is not empty"
    return None


def measure(kind: str, backend: str, seed: int, traced: bool,
            reference: bool) -> Dict[str, Any]:
    from repro.obs import export, metrics, tracing
    import layers
    capture = Capture()
    if traced:
        layers.install()
    run = {"report": run_report, "sampled": run_sampled}[kind]
    before = metrics.snapshot()
    cpu0 = _cpu_seconds()
    with tracing.enable() if traced else contextlib.nullcontext():
        started = time.perf_counter()
        results = run(seed, backend, capture)
        wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu0
    peak = _peak_rss_mb()
    manifest = export.build_report(
        run_id="perfbench", label=kind, command="perfbench",
        delta=metrics.delta(before, metrics.snapshot()),
        spans=tracing.drain(), elapsed=wall).to_json()
    counts = manifest["counts"]
    out: Dict[str, Any] = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "cells": len(results),
        "instructions": sum(result.instructions
                            for result in results.values()),
        "counts": counts,
        "digest": digest(cell_lines(results)),
        "guard": _guard(counts),
        "backend": manifest["backend"] or "serial",
        "workers": manifest["workers"] or 1,
        "engine": os.environ["REPRO_ENGINE"],
    }
    if traced:
        out["layers"] = layers.derive(manifest, os.getpid())
        out["layers"].update(layers.memo_footprint())
    if reference:
        out["reference_digest"] = digest(cell_lines(
            reference_results(kind, seed)))
    return out


def _guard(counts: Dict[str, int]) -> Optional[str]:
    """The cache-state guard of one (cold) invocation."""
    if counts.get("quarantined"):
        return f"{counts['quarantined']} cells quarantined"
    if counts.get("cached"):
        return f"cold run served {counts['cached']} cells from cache"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading when the parent "
                             "started this process")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    kind, backend, engine, _ = WORKLOADS[args.workload]
    os.environ["REPRO_CACHE_DIR"] = os.path.abspath(args.cache)
    os.environ["REPRO_ENGINE"] = engine
    sys.path.insert(0, os.path.join(ROOT, "src"))
    failure = prepare(args.cache)
    result: Dict[str, Any] = {"setup_s": clock() - args.spawned}
    if failure is None and not args.setup_only:
        result.update(measure(kind, backend, args.seed, args.traced,
                              args.reference))
    else:
        result["guard"] = failure
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
