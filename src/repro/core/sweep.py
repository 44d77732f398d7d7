"""Shared experiment running: traces × schemes × configurations.

Every figure in the paper is a grid of (workload, scheme, config)
simulations.  This module provides the layers that make those grids
cheap (DESIGN.md Section 7), all keyed off one canonical cell identity —
the :class:`~repro.experiments.spec.RunSpec`:

* :func:`run_spec` — one cell, memoised twice: an in-process result
  cache keyed by the canonical RunSpec, backed by the persistent
  content-addressed disk cache (:mod:`repro.core.diskcache`) so repeated
  invocations across processes skip simulation entirely.  Execution
  units call its second half, :func:`run_cell`, with the engine and
  disk key they carry.
* :func:`run_specs` — any collection of cells, deduplicated on their
  canonical form and executed through a pluggable
  :class:`~repro.core.exec.Backend` (serial, thread pool or process
  pool — DESIGN.md Section 10).  Cells are independent, deterministic
  simulations, so every backend is bit-identical to the serial path;
  cells are grouped into cost-balanced work units that pool workers
  drain work-stealing-style, each worker keeping warm program/trace
  caches between the cells it executes.  Sampled windows
  (:class:`~repro.experiments.spec.SampleSpec`) arrive here as ordinary
  cells with distinct window seeds, so they cache and parallelise like
  everything else.  Progress is observable through structured events
  (``progress=``) and every resolved cell can be journalled
  (``journal=``) so interrupted invocations resume with zero
  recomputation.

Figure grids reach it as :class:`~repro.experiments.spec.GridSpec`
collections (:func:`repro.experiments.spec.run_grid_spec`), the CLI's
raw sweeps as plain RunSpec lists.  How cells are scheduled, on which
engine, with or without the disk cache and telemetry comes from one
:class:`~repro.core.exec.ExecutionPolicy` (DESIGN.md Section 10),
resolved once per call.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core import diskcache
# repro: allow[RPR002] -- scheduler boundary; backends bit-identical (DESIGN 10)
from repro.core.exec import ProgressTracker, RunJournal, chunk_specs, \
    current_policy, spec_cost
# repro: allow[RPR002] -- fault hooks are no-ops unless a plan is injected
from repro.core.exec import faults as faultlib
# repro: allow[RPR002] -- event vocabulary only; carries no engine state
from repro.core.exec import progress as progress_events
# repro: allow[RPR002] -- supervision retries bit-identical cells (DESIGN 11)
from repro.core.exec.supervisor import DEFAULT_BACKOFF_BASE, CellFailure, \
    FailureReport, SupervisorEvent
from repro.core.engine_select import simulate
from repro.core.metrics import SimulationResult
from repro.errors import ReproError
# repro: allow[RPR002] -- RunSpec is a frozen value type; keys live in diskcache
from repro.experiments.spec import RunSpec
# repro: allow[RPR002] -- observability registry; reads engine events only
from repro.obs.metrics import counter as _obs_counter, gauge as _obs_gauge
# repro: allow[RPR002] -- span tracing is read-only and off by default
from repro.obs import tracing as _obs_tracing
from repro.prefetch.factory import build_scheme
from repro.workloads.profiles import build_program, build_trace, \
    get_profile

#: Shrinks supervised retry backoff for tests and CI chaos runs.
_ENV_BACKOFF_BASE = "REPRO_BACKOFF_BASE"

#: In-process result memo, keyed by canonical :class:`RunSpec`.
_RESULT_CACHE: Dict[RunSpec, SimulationResult] = {}

#: Process-local count of cells actually simulated (cache misses only),
#: now the ``sweep.simulations`` counter in the :mod:`repro.obs.metrics`
#: registry (lock-guarded there; the thread backend increments from
#: several threads).  Sampled-mode tests, explore-budget accounting and
#: the acceptance check "a repeated run performs zero simulations"
#: observe this.  Cells dispatched to pool workers count here too: the
#: parent increments once per dispatched cell, which is exact up to
#: cross-process races (the parent probes memo and disk cache before
#: dispatching, so a dispatched cell is simulated unless a concurrent
#: foreign process stored it first).  A fully-cached run — serial or
#: parallel — adds zero.
_SIMULATIONS = _obs_counter("sweep.simulations")

#: Process-local count of cells quarantined by the execution loop
#: (each one completed no simulation and has no result).  The CLI's
#: accounting line and the explore budget report read deltas of this.
_QUARANTINES = _obs_counter("sweep.quarantines")

#: Cells entering :func:`run_specs` (after canonical dedup) and cells
#: it served from the caches — with simulations and quarantines these
#: reconcile exactly: ``cells == simulated + cached + quarantined``.
_CELLS = _obs_counter("sweep.cells")
_CACHED_CELLS = _obs_counter("sweep.cached_cells")

#: Structured report of the most recent :func:`run_specs` call that
#: quarantined, retried or degraded anything (None when the last call
#: was clean).
last_failures: Optional[FailureReport] = None


def _count_simulation() -> None:
    _SIMULATIONS.inc()


def _count_quarantine() -> None:
    _QUARANTINES.inc()


def note_remote_result(spec: RunSpec, result: SimulationResult,
                       use_cache: bool = True) -> None:
    """Mirror one worker-simulated cell into this process's accounting.

    Process-pool workers simulate in their own interpreters: the parent
    must count the simulation (budget/zero-simulation observers) and
    memoise the result (so later serial calls hit).  The execution loop
    calls this once per cell a process-pool worker returns — both caches
    were probed before dispatch, so every dispatched cell was a genuine
    miss here.
    """
    _count_simulation()
    if use_cache:
        # repro: allow[RPR004] -- GIL-atomic write of an idempotent memo value
        _RESULT_CACHE[spec] = result


def reset_simulation_counter() -> None:
    """Zero the process-local simulation/quarantine counters (tests)."""
    for instrument in (_SIMULATIONS, _QUARANTINES, _CELLS, _CACHED_CELLS):
        instrument.reset()


class SimulationMeter:
    """Live view of the simulations performed since a reference point.

    Budget accounting for callers that interleave their own work with
    sweep calls (the :mod:`repro.explore` search driver, tests asserting
    "a repeated run performs zero simulations"): ``count`` tracks the
    module counter relative to where the meter started, so it reads
    correctly even while more cells are still being executed.
    """

    def __init__(self) -> None:
        self._start = _SIMULATIONS.value

    @property
    def count(self) -> int:
        return max(0, _SIMULATIONS.value - self._start)


@contextlib.contextmanager
def simulation_meter() -> Iterator[SimulationMeter]:
    """Meter the simulations performed inside the ``with`` block.

    Counts engine executions only — cells served by the in-process memo
    or the disk cache are free, which is what makes the meter the right
    observable for "this invocation was fully cached" assertions and for
    the explore subsystem's accounting of real versus cached work.
    """
    yield SimulationMeter()


def run_spec(spec: RunSpec, use_cache: bool = True) -> SimulationResult:
    """Simulate one cell on its own (the primitive everything builds on).

    Resolves the :class:`~repro.core.exec.ExecutionPolicy` in scope for
    its engine and disk-cache settings.  With ``use_cache`` the
    in-process memo is consulted first, then (when the policy allows
    it) the persistent disk cache; a simulated result is written back
    to both.
    """
    policy = current_policy().resolved()
    spec = spec.canonical()
    disk_key = None
    if use_cache and policy.disk_cache and spec not in _RESULT_CACHE:
        disk_key = diskcache.spec_key(spec)
        cached = diskcache.load(disk_key)
        if cached is not None:
            # repro: allow[RPR004] -- GIL-atomic write of an idempotent memo
            _RESULT_CACHE[spec] = cached
            return cached
    return run_cell(spec, policy.engine, disk_key, use_cache)


def run_cell(spec: RunSpec, engine: str, disk_key: Optional[str] = None,
             use_cache: bool = True) -> SimulationResult:
    """Simulate one cell whose disk probe, if any, missed.

    The entry every execution unit calls, in this process or a pool
    worker: it reads no policy and probes no disk cache.  *engine* is
    the policy's engine name; *disk_key* is the key the caller missed
    under, and the result is stored there (None: the disk cache is off
    for this cell).  With ``use_cache`` the in-process memo is still
    consulted and filled.
    """
    spec = spec.canonical()
    if use_cache and spec in _RESULT_CACHE:
        return _RESULT_CACHE[spec]

    plan = faultlib.active_plan()
    if plan is not None:
        # Injection point for the fault-tolerance harness (DESIGN.md
        # Section 11): cached cells are never poisoned — the plan fires
        # only where real failures can happen, during simulation.
        plan.before_cell(spec)

    with _obs_tracing.span(
            "simulate", workload=spec.workload, scheme=spec.scheme,
            n_blocks=spec.n_blocks, seed=spec.seed,
            spec_key=disk_key):
        profile = get_profile(spec.workload)
        generated = build_program(spec.workload)
        trace = build_trace(spec.workload, spec.n_blocks, seed=spec.seed)
        scheme = build_scheme(spec.scheme, spec.params, generated,
                              spec.config)
        result = simulate(
            trace, scheme, params=spec.params,
            l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr,
            engine=engine,
        )
    _count_simulation()
    if use_cache:
        # repro: allow[RPR004] -- GIL-atomic write of an idempotent memo
        _RESULT_CACHE[spec] = result
        if disk_key is not None:
            diskcache.store(disk_key, result)
            if plan is not None:
                plan.after_store(spec, diskcache.entry_path(disk_key))
            if not diskcache.verify_entry(disk_key):
                # Write-verify heal: the entry on disk does not match
                # what we just computed (truncation by a full disk, or
                # an injected corrupt fault).  The result is still in
                # memory — store it again rather than leaving a poisoned
                # entry for the next reader to evict and re-simulate.
                diskcache.store(disk_key, result)
    return result


def run_specs(specs: Iterable[RunSpec], use_cache: bool = True,
              faults: Optional[faultlib.FaultPlan] = None,
              **overrides) -> Dict[RunSpec, SimulationResult]:
    """Simulate a collection of cells through a pluggable backend.

    Cells are deduplicated on their canonical form, so a grid whose
    rows share one baseline simulates it once.  Returns a mapping from
    canonical spec to result (look up with ``spec.canonical()``).
    Cells are independent deterministic simulations, so results are
    bit-identical whichever backend executes them.

    Execution follows the :class:`~repro.core.exec.ExecutionPolicy` in
    scope (the CLI scopes one per invocation) with *overrides* — keywords
    named exactly like its fields: ``backend``, ``max_workers``,
    ``progress``, ``journal``, ``retries``, ``unit_timeout``,
    ``on_error``, ``engine``, ``disk_cache`` and ``telemetry`` —
    replacing fields for this call only; the result is resolved once
    (unset settings read from the environment).  ``faults`` is
    a :class:`~repro.core.exec.faults.FaultPlan` scoped to this call
    (the test harness; an inherited ``REPRO_FAULT_PLAN`` environment
    plan reaches here too).

    A fully-cached collection returns before any backend is resolved:
    no pool, no workers, no executor — repeated runs cost file reads.
    Under ``on_error`` ``skip``/``degrade`` the returned mapping omits
    quarantined cells; they are recorded in the journal
    (``cell_failed``) and in :data:`last_failures`, and a resumed
    invocation carries them forward instead of retrying them.
    """
    global last_failures
    policy = replace(current_policy(), **overrides).resolved()

    ordered: List[RunSpec] = []
    seen = set()
    for spec in specs:
        canonical = spec.canonical()
        if canonical not in seen:
            seen.add(canonical)
            ordered.append(canonical)
    _CELLS.inc(len(ordered))

    progress = policy.progress
    if policy.telemetry:
        # Stream every progress event to the JSONL telemetry sink,
        # composing with (not replacing) any stderr/caller callback.
        # repro: allow[RPR002] -- telemetry sink; consumes events only
        from repro.obs import export as _obs_export
        writer = _obs_export.TelemetryWriter(policy.telemetry)
        progress = _obs_export.progress_sink(writer, wrapped=progress)
    journal = policy.journal
    if isinstance(journal, str):
        journal = RunJournal(journal)

    results: Dict[RunSpec, SimulationResult] = {}
    pending: List[RunSpec] = []
    disk_keys: Dict[RunSpec, str] = {}
    probe_disk = use_cache and policy.disk_cache
    with _obs_tracing.span("cache_probe", cells=len(ordered)):
        for spec in ordered:
            hit = _RESULT_CACHE.get(spec) if use_cache else None
            if hit is None and probe_disk:
                # Probe the disk cache in the parent before deciding to
                # fan out: a fully-cached collection (e.g. a repeated
                # sampled run) then costs a few file reads instead of a
                # worker pool.
                disk_keys[spec] = diskcache.spec_key(spec)
                hit = diskcache.load(disk_keys[spec])
                if hit is not None:
                    # repro: allow[RPR004] -- parent-only probe loop, pre-fan-out
                    _RESULT_CACHE[spec] = hit
            if hit is not None:
                results[spec] = hit
            else:
                pending.append(spec)
    n_cached = len(results)
    _CACHED_CELLS.inc(n_cached)

    def cell_key(spec: RunSpec) -> str:
        key = disk_keys.get(spec)
        return key if key is not None else diskcache.spec_key(spec)

    # Quarantines recorded by a previous (resumed) invocation are
    # carried forward: those cells were decided, not lost, so a resume
    # must not silently retry them — and must not re-simulate anything.
    carried: List[RunSpec] = []
    if journal is not None and pending:
        quarantined_keys = journal.quarantined
        if quarantined_keys:
            still_pending: List[RunSpec] = []
            for spec in pending:
                if cell_key(spec) in quarantined_keys:
                    carried.append(spec)
                else:
                    still_pending.append(spec)
            pending = still_pending
    if carried and policy.on_error == "fail":
        first = carried[0]
        raise ReproError(
            f"{len(carried)} cell(s) were quarantined by a previous "
            f"invocation (first: {first.workload}/{first.scheme}); rerun "
            "with --on-error skip/degrade to carry them forward, or "
            "start fresh without --resume to retry them"
        )

    tracker: Optional[ProgressTracker] = None
    if progress is not None:
        tracker = ProgressTracker(
            total=len(ordered),
            total_cost=sum(spec_cost(spec) for spec in ordered),
            callback=progress,
        )
        tracker.prime_cached(
            len(results), sum(spec_cost(spec) for spec in results))
    if journal is not None:
        journal.begin(len(ordered))
        for spec in results:
            journal.record(cell_key(spec), progress_events.CACHED)
    if tracker is not None:
        tracker.start()
    for spec in carried:
        _count_quarantine()
        if tracker is not None:
            tracker.quarantine(spec, spec_cost(spec),
                               "quarantined by a previous invocation")

    def _finish_report(report: FailureReport) -> int:
        """Fold carried + fresh failures into :data:`last_failures`."""
        global last_failures
        cells = [CellFailure(spec=spec, carried=True) for spec in carried]
        cells.extend(report.cells)
        if cells or report.retries or report.degraded:
            # repro: allow[RPR004] -- parent-only, after all workers drained
            last_failures = FailureReport(cells=cells,
                                          retries=report.retries,
                                          degraded=list(report.degraded))
        else:
            last_failures = None
        return len(cells)

    # Gauge set parent-side (gauges do not travel back from process
    # workers); per-cell engine counters ship with the worker deltas.
    # Set before the fully-cached early return so the manifest records
    # the requested engine even when no cell simulates.  (An invalid
    # REPRO_ENGINE already failed above, when the policy was resolved.)
    _obs_gauge("engine.requested").set(policy.engine)

    if not pending:
        # Fully cached (or fully carried): the scheduler never
        # materialises — the no-executor guarantee the regression
        # tests pin.
        failed = _finish_report(FailureReport())
        if journal is not None:
            journal.finish(simulated=0, cached=n_cached, failed=failed)
        if tracker is not None:
            tracker.finish()
        return results

    def _notify(event: SupervisorEvent) -> None:
        if event.kind == "retry":
            _obs_counter("supervisor.retries").inc()
            if tracker is not None:
                tracker.retry(event.spec,
                              f"unit of {event.unit_size}, attempt "
                              f"{event.attempt} ({event.error})")
        elif event.kind == "quarantine":
            _obs_counter("supervisor.quarantines").inc()
            _count_quarantine()
            if journal is not None:
                journal.record_failure(cell_key(event.spec), event.error,
                                       list(event.attempts))
            if tracker is not None:
                tracker.quarantine(event.spec, spec_cost(event.spec),
                                   event.error)
        elif event.kind == "degrade":
            _obs_counter("supervisor.degrades").inc()
            if tracker is not None:
                tracker.degrade(f"execution degraded {event.mode} -> "
                                f"{event.to_mode}: {event.error}")

    backend = policy.make_backend(
        len(pending), notify=_notify,
        backoff_base=float(os.environ.get(_ENV_BACKOFF_BASE)
                           or DEFAULT_BACKOFF_BASE))
    _obs_gauge("sweep.last_backend").set(backend.name)
    _obs_gauge("sweep.last_workers").set(backend.max_workers)

    plan_scope = faults.activated() if faults is not None \
        else contextlib.nullcontext()
    simulated = 0
    recovered_cached = 0
    with plan_scope, _obs_tracing.span(
            "execute", anchor=True, backend=backend.name,
            workers=backend.max_workers, cells=len(pending)):
        for spec, result in backend.execute(
                chunk_specs(pending, backend.max_workers), policy.engine,
                use_cache=use_cache, disk_keys=disk_keys):
            results[spec] = result
            if spec in backend.recovered:
                # A retry re-probe served this cell from the disk cache
                # (its first attempt persisted it before the unit
                # failed) — a cache hit, not a simulation.
                recovered_cached += 1
                _CACHED_CELLS.inc()
                if use_cache:
                    _RESULT_CACHE[spec] = result
                source = progress_events.CACHED
            else:
                simulated += 1
                source = progress_events.SIMULATED
            if journal is not None:
                journal.record(cell_key(spec), source)
            if tracker is not None:
                tracker.cell(spec, source, spec_cost(spec))
    failed = _finish_report(backend.report)
    if journal is not None:
        journal.finish(simulated=simulated,
                       cached=n_cached + recovered_cached,
                       failed=failed)
    if tracker is not None:
        tracker.finish()
    return results


def clear_result_cache() -> None:
    """Drop memoised simulation results (used by tests)."""
    # repro: allow[RPR004] -- test helper; callers quiesce workers first
    _RESULT_CACHE.clear()
