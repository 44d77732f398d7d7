"""The execution loop and its three pool factories.

Every collection of cells :func:`repro.core.sweep.run_specs` simulates
drains through one loop, :meth:`Backend.execute` (DESIGN.md Sections 10
and 11).  A backend decides only *where* cells run; cells are
independent deterministic simulations, so every backend yields
bit-identical results:

* :class:`SerialBackend` — no pool: units run inline in this process,
  one cell at a time, yielding after every cell.  The reference order,
  and the floor of the degradation chain.
* :class:`ThreadBackend` — a thread pool in this process.  The engine
  is pure Python, so threads don't speed simulation up (the GIL), but
  they share the in-process memo and warm program/trace caches, cost
  nothing to spawn, and overlap the disk-cache I/O of warm sweeps —
  the right choice for cache-dominated or I/O-heavy collections, and
  for environments where ``fork``/``spawn`` is unavailable.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.
  ProcessPoolExecutor`.  True parallel simulation; workers start with
  the parent's warm program/trace caches, keep them across the cells
  of their (program-affine) units and persist every result to the
  shared disk cache the moment it is simulated (which is what makes
  interrupted sweeps resumable).

The three differ only in :meth:`Backend._make_pool`.  The
:class:`~repro.core.exec.ExecutionPolicy`'s budgets configure the loop
— per-unit timeout, retries with seeded backoff, unit splitting,
quarantine and the process → thread → serial degradation chain; the
records it fills live in :mod:`~repro.core.exec.supervisor`.  The
default policy supervises nothing: the first failing cell's own
exception propagates.

Units wait longest-first in the loop's own queue with at most
``max_workers`` in flight, so an idle worker always takes the next
unit — the rebalancing half of the chunking policy — and a unit's
deadline starts when a worker takes it, not while it waits.
Abandoning the consuming iterator cancels every unit that has not
started and waits only for in-flight ones; a normal finish shuts the
pool down in order, and only a hung or broken pool is killed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, \
    Set, Tuple, Type

from repro import heap
from repro.core.exec import faults
from repro.core.exec.chunking import WorkUnit
from repro.core.exec.supervisor import DEFAULT_BACKOFF_BASE, \
    DEFAULT_BACKOFF_CAP, DEGRADE_AFTER, CellFailure, FailureReport, \
    NotifyCallback, SupervisorEvent
from repro.errors import ReproError
from repro.obs import metrics, tracing

#: Result pairs a backend yields: (canonical spec, simulation result).
CellResult = Tuple[Any, Any]

#: What a worker ships back per unit: the result pairs, the span
#: records its process buffered while executing them, and its metric
#: delta for the unit (both empty in thread pools, where spans and
#: metrics land in the shared parent registry directly).
UnitResult = Tuple[List[CellResult], List[dict], Dict[str, dict]]

#: Worker-side counters the parent already accounts for itself and must
#: therefore NOT absorb from shipped deltas: the parent probed the disk
#: cache before dispatch (misses) and mirrors each remote simulation via
#: :func:`repro.core.sweep.note_remote_result` (simulations).  Stores,
#: corrupt evictions and the engine-phase histograms only happen worker
#: side, so those do travel.
_PARENT_ACCOUNTED = ("cache.hits", "cache.misses", "sweep.simulations",
                     "sweep.quarantines", "sweep.cells",
                     "sweep.cached_cells")

#: The degradation chain: each execution mode falls back to the next.
_CHAIN = ("process", "thread", "serial")


def _run_unit(specs: Sequence[Any], keys: Sequence[Optional[str]],
              engine: str, use_cache: bool) -> UnitResult:
    """Execute one unit's cells in a pool worker (process or thread).

    Worker entry point for the pool backends.  The unit carries what
    its cells need, since a worker sees neither the parent's policy nor
    its environment settings: the engine name and, per cell, the disk
    key the parent missed under (None: no disk cache).
    :func:`repro.core.sweep.run_cell` keeps warm program/trace caches
    across the unit's cells and stores each result under its key at
    once, without probing again — a unit interrupted halfway loses
    only the cell in flight.

    In a process-pool worker the unit's span records are drained and
    shipped home with the results (the parent adopts them under its
    ``execute`` span) together with the worker's metric delta for the
    unit; elsewhere the records are already in the parent's tracer and
    the shipped payloads are empty.
    """
    from repro.core.sweep import run_cell
    in_worker = tracing.in_worker()
    before = metrics.snapshot() if in_worker else None
    pairs: List[CellResult] = []
    with tracing.span("unit", cells=len(specs)):
        for spec, key in zip(specs, keys):
            try:
                pairs.append((spec, run_cell(spec, engine, key, use_cache)))
            except Exception as error:
                # Name the failing cell (the attribute pickles with the
                # exception) so a split charges the retry to it alone.
                error.repro_failed_cell = spec
                raise
    if not in_worker:
        return pairs, [], {}
    return (pairs, *worker_shipment(before))


def worker_shipment(before: Dict[str, dict]) -> Tuple[List[dict],
                                                      Dict[str, dict]]:
    """What a process-pool worker ships home with a task's results.

    Its drained span records, and its metric delta since the snapshot
    *before* without the counters the parent accounts for itself; the
    parent merges them with :func:`~repro.obs.tracing.adopt` and
    :func:`~repro.obs.metrics.absorb`.  The delta carries the worker's
    peak resident set and its program memo
    (:func:`repro.obs.memory.note_peak`), which the parent keeps as a
    max.  Shared by :func:`_run_unit` and the planned
    program build stage (:func:`repro.workloads.profiles.build_programs`).
    """
    # Imported here, not at module load: only workers and builders call
    # this, and every invocation imports this module at start-up.
    from repro.obs import memory
    from repro.workloads.profiles import refresh_program_memo
    refresh_program_memo()
    memory.note_peak()
    shipped = metrics.delta(before, metrics.snapshot())
    counters = {name: value
                for name, value in shipped.get("counters", {}).items()
                if value and name not in _PARENT_ACCOUNTED}
    return tracing.drain(), {
        "counters": counters,
        "histograms": shipped.get("histograms", {}),
    }


def _process_worker_init(profiles, collect_spans: bool) -> None:
    """Pool-worker initializer: mirror the parent's workload registry
    and span collection (*collect_spans*: the parent's
    :func:`~repro.obs.tracing.enabled` when it created the pool).

    Workers started by the ``spawn`` method (macOS/Windows defaults)
    re-import the package and therefore only see the profiles that
    register at import time — user registrations and ``replace=True``
    overrides made in the parent would be missing or stale.  The parent
    ships its full registry and the worker re-registers every entry.
    Under ``fork`` the worker inherits the registry together with the
    parent's memoised programs, traces and results; every shipped
    profile equals the inherited one, so re-registering is a no-op and
    the worker starts warm: it builds only what the parent had not.
    """
    from repro.workloads.profiles import register_profile
    faults.mark_worker()
    tracing.mark_worker(collect_spans)
    # A fork-started worker inherits the parent's span buffer; drop it
    # so the first unit does not ship the parent's own spans back as
    # duplicates.  (Spawn-started workers start empty anyway.)
    tracing.reset()
    for profile in profiles:
        register_profile(profile, replace=True)


def _ensure_picklable(units: Sequence[WorkUnit]) -> None:
    """Fail fast with a clear error when a unit cannot cross a pipe.

    A scheme or workload carrying a closure (a lambda miss-latency
    model, a locally-defined profile) pickles fine right up until the
    pool tries to ship it, at which point the raw ``PicklingError``
    surfaces from deep inside :mod:`concurrent.futures` with no hint of
    which cell is at fault.  Probe each unit up front instead.
    """
    import pickle
    for unit in units:
        for spec in unit.specs:
            try:
                pickle.dumps(spec)
            except Exception as exc:
                raise ReproError(
                    f"cell {spec.workload}/{spec.scheme} cannot be sent to "
                    f"a worker process ({type(exc).__name__}: {exc}); "
                    f"schemes/workloads used with the process backend must "
                    f"be picklable — avoid lambdas and locally-defined "
                    f"functions, or run with --backend thread/serial"
                ) from exc


@dataclass
class _Attempt:
    """One scheduled execution of a unit (possibly a retry/split)."""

    unit: WorkUnit
    attempt: int = 1
    not_before: float = 0.0
    history: List[Dict[str, Any]] = field(default_factory=list)


def _failure_kind(error: Exception) -> Tuple[str, str]:
    """Classify one failed execution as ``(kind, message)``."""
    if isinstance(error, BrokenProcessPool):
        return "crash", f"worker process died: {error}"
    if isinstance(error, CancelledError):
        return "reset", "cancelled by a pool reset"
    if isinstance(error, faults.InjectedCrash):
        return "crash", str(error)
    return "error", f"{type(error).__name__}: {error}"


class Backend:
    """The execution loop; subclasses supply only the pool.

    Subclasses set ``name`` (the CLI/registry identifier and the start
    of the degradation chain) and implement :meth:`_make_pool` (None:
    run inline).  ``retries``, ``unit_timeout`` and ``on_error`` are
    the policy's budgets, validated by
    :class:`~repro.core.exec.ExecutionPolicy`; ``notify`` receives
    every :class:`~repro.core.exec.supervisor.SupervisorEvent`.
    """

    name: str = "?"

    def __init__(self, max_workers: int = 1,
                 retries: int = 0,
                 unit_timeout: Optional[float] = None,
                 on_error: str = "fail",
                 notify: Optional[NotifyCallback] = None,
                 seed: int = 0,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP) -> None:
        if max_workers < 1:
            raise ReproError(
                f"backend needs at least one worker, got {max_workers}"
            )
        self.max_workers = max_workers
        self.retries = retries
        self.unit_timeout = unit_timeout
        self.on_error = on_error
        self.seed = seed
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._notify = notify or (lambda event: None)
        #: Degradation chain, starting at this backend's own mode.
        self._modes = _CHAIN[_CHAIN.index(self.name):]
        self._mode_index = 0
        #: Filled per execute() call.
        self.report = FailureReport()
        #: Specs served from the disk cache on retry probes (so the
        #: scheduler can label them ``cached``, not simulated).
        self.recovered: Set[Any] = set()
        #: The caller's engine and probed disk keys, per execute() call.
        self._engine = ""
        self._disk_keys: Mapping[Any, str] = {}

    @property
    def supervised(self) -> bool:
        """Whether failures are retried, timed out or quarantined
        rather than propagated (any non-default budget)."""
        return bool(self.retries) or self.unit_timeout is not None \
            or self.on_error != "fail"

    def _make_pool(self, workers: int):
        """An executor with *workers* workers, or None to run inline."""
        return None

    # -- Mode / pool management ----------------------------------------

    @property
    def mode(self) -> str:
        return self._modes[self._mode_index]

    def _degrade(self, reason: str) -> None:
        """Advance the fallback chain, or raise when policy forbids it."""
        if self.on_error == "degrade" \
                and self._mode_index + 1 < len(self._modes):
            previous = self.mode
            self._mode_index += 1
            self.report.degraded.append((previous, self.mode))
            self._notify(SupervisorEvent(
                kind="degrade", mode=previous, to_mode=self.mode,
                error=reason,
            ))
            return
        raise ReproError(
            f"execution backend {self.mode!r} is unrecoverable "
            f"({reason}) and --on-error {self.on_error} forbids "
            "degradation; retry with --on-error degrade"
        )

    def _spawn_pool(self, workers: int):
        """Create the current mode's pool, degrading on failure."""
        while True:
            try:
                return BACKENDS[self.mode]._make_pool(self, workers)
            except ReproError:
                raise
            except Exception as error:
                if not self.supervised:
                    raise
                self._degrade(f"cannot create {self.mode} pool: {error}")

    def _kill_pool(self, pool) -> None:
        """Tear a pool down hard enough that hung work cannot block us."""
        if isinstance(pool, ProcessPoolExecutor):
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=True, cancel_futures=True)
            return
        # Thread pool: threads cannot be killed.  Release injected
        # hangs so abandoned workers unwind, then walk away without
        # waiting (a genuinely hung thread is leaked until it returns).
        faults.cancel_hangs()
        pool.shutdown(wait=False, cancel_futures=True)

    # -- Failure handling ----------------------------------------------

    def _backoff(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** max(0, attempt - 1)))
        return delay * (1.0 + rng.random())

    def _fail_attempt(self, att: _Attempt, kind: str, error: str,
                      queue: deque, now: float, rng: random.Random,
                      unfinished: Optional[Sequence[Any]] = None,
                      culprit: Any = None) -> None:
        """Record one failed execution of *att* and decide its future.

        *unfinished* are the unit's cells a split re-runs (default: all
        of them; inline execution already yielded the ones before the
        failing cell).  *culprit* is the cell that raised, when known:
        a split then charges the attempt to it alone.
        """
        att.history.append({"attempt": att.attempt, "mode": self.mode,
                            "kind": kind, "error": error[:500]})
        specs = att.unit.specs
        next_attempt = att.attempt + 1
        if kind == "reset":
            # A reset punishes the *neighbour* of a hung or dead unit —
            # the pool had to die, but this unit did nothing wrong, so
            # the collateral restart does not consume its retry budget
            # (a cell repeatedly co-scheduled with a poison cell used to
            # burn all its attempts on resets and get quarantined
            # without ever failing).  Resets cannot recur unboundedly:
            # each one is caused by a timeout or crash that *is* charged
            # to the culprit's budget.
            next_attempt = att.attempt
        if len(specs) > 1:
            # Split: isolate the culprit by re-running per cell.  The
            # split is the culprit's retry (its attempt advances); a
            # unit-mate that did not raise — it finished or never ran —
            # keeps its budget.  Without a known culprit (a crash or
            # timeout takes the whole unit down) every cell is charged.
            # Each singleton inherits the unit's history so quarantine
            # records show the full story.
            delay = self._backoff(att.attempt, rng)
            self.report.retries += 1
            self._notify(SupervisorEvent(
                kind="retry", unit_size=len(specs), attempt=next_attempt,
                mode=self.mode, error=error, delay=delay,
            ))
            for spec in specs if unfinished is None else unfinished:
                charged = culprit is None or spec == culprit
                queue.append(_Attempt(
                    unit=WorkUnit(index=att.unit.index, specs=(spec,),
                                  cost=max(1, att.unit.cost // len(specs))),
                    attempt=next_attempt if charged else att.attempt,
                    not_before=now + delay,
                    history=list(att.history),
                ))
            return
        if next_attempt > self.retries + 1:
            for spec in specs:
                failure = CellFailure(spec=spec,
                                      attempts=tuple(att.history))
                self.report.cells.append(failure)
                self._notify(SupervisorEvent(
                    kind="quarantine", spec=spec, attempt=att.attempt,
                    mode=self.mode, error=error,
                    attempts=failure.attempts,
                ))
            if self.on_error == "fail":
                spec = specs[0]
                raise ReproError(
                    f"cell {spec.workload}/{spec.scheme} failed after "
                    f"{att.attempt} attempt(s): {error} "
                    "(use --on-error skip or degrade to quarantine "
                    "failing cells and continue)"
                )
            return
        delay = self._backoff(att.attempt, rng)
        self.report.retries += 1
        self._notify(SupervisorEvent(
            kind="retry", unit_size=len(specs), attempt=next_attempt,
            mode=self.mode, error=error, delay=delay,
        ))
        queue.append(_Attempt(unit=att.unit, attempt=next_attempt,
                              not_before=now + delay,
                              history=att.history))

    def _probe_retry_cache(self, att: _Attempt) -> Tuple[List[CellResult],
                                                         Tuple[Any, ...]]:
        """Serve a retry's already-completed cells from the disk cache.

        A unit that crashed halfway persisted every cell it finished;
        re-probing in the parent before resubmission means a retry only
        re-simulates what was actually lost.  Only cells with a disk
        key are probed: a cell without one was never stored.
        """
        if not att.history or not self._disk_keys:
            # No failed execution behind this attempt, or no disk cache:
            # nothing to recover.  (Checked via the history, not the
            # attempt number: a budget-free reset requeues at the same
            # attempt but may still have completed cells worth probing.)
            return [], att.unit.specs
        from repro.core import diskcache
        served: List[CellResult] = []
        remaining: List[Any] = []
        for spec in att.unit.specs:
            key = self._disk_keys.get(spec)
            hit = diskcache.load(key) if key is not None else None
            if hit is not None:
                served.append((spec, hit))
                self.recovered.add(spec)
            else:
                remaining.append(spec)
        return served, tuple(remaining)

    def _note_pool_failure(self, pool_failures: int) -> int:
        """Count one pool-level failure; degrade when they accumulate."""
        pool_failures += 1
        if pool_failures >= DEGRADE_AFTER \
                and self.on_error == "degrade" \
                and self._mode_index + 1 < len(self._modes):
            self._degrade(
                f"{pool_failures} consecutive pool failures "
                "without progress")
            pool_failures = 0
        return pool_failures

    # -- The drain loop ------------------------------------------------

    def _run_inline(self, att: _Attempt, use_cache: bool, queue: deque,
                    rng: random.Random) -> Iterator[CellResult]:
        """Run one attempt in this process, yielding after every cell.

        Inline work cannot be preempted, so a unit timeout never fires
        here.  A failing cell fails the whole attempt, but a split
        re-runs only it and the cells after it: the ones before it were
        already yielded.
        """
        from repro.core.sweep import run_cell
        specs = att.unit.specs
        with tracing.span("unit", cells=len(specs)):
            for done, spec in enumerate(specs):
                try:
                    result = run_cell(spec, self._engine,
                                      self._disk_keys.get(spec), use_cache)
                except Exception as error:
                    if not self.supervised:
                        raise
                    self._fail_attempt(att, *_failure_kind(error), queue,
                                       time.monotonic(), rng,
                                       unfinished=specs[done:],
                                       culprit=spec)
                    return
                yield spec, result

    def execute(self, units: Sequence[WorkUnit], engine: str,
                use_cache: bool = True,
                disk_keys: Optional[Mapping[Any, str]] = None) \
            -> Iterator[CellResult]:
        """Yield every unit's ``(spec, result)`` pairs as they complete.

        Pairs a retry served from the disk cache are also added to
        :attr:`recovered`; quarantines, retries and degradations are
        recorded in :attr:`report`.  *engine* is the policy's engine
        name; *disk_keys* maps cells the caller probed the disk cache
        for, and missed, to their keys (empty: the disk cache is off).
        Both travel with every unit, wherever it runs: each cell stores
        under its key without probing again.
        """
        from repro.core.sweep import note_remote_result
        self.report = FailureReport()
        self.recovered = set()
        self._disk_keys = disk_keys or {}
        self._engine = engine
        if self.mode == "process":
            try:
                _ensure_picklable(units)
            except ReproError as error:
                if not self.supervised:
                    raise
                self._degrade(str(error))
        # Never more workers than units, and never more attempts in
        # flight than workers (see below).
        workers = min(self.max_workers, len(units))
        rng = random.Random(self.seed)
        queue: deque = deque(_Attempt(unit=unit) for unit in units)
        inflight: Dict[Future, Tuple[_Attempt, Optional[float]]] = {}
        pool = None
        pool_failures = 0
        try:
            while queue or inflight:
                now = time.monotonic()
                # Submit every attempt whose backoff has elapsed — but
                # never more than the pool has workers.  The unit
                # deadline is stamped at submit time, so an attempt
                # queued inside the executor behind busy workers would
                # burn its timeout budget *waiting*: with a hung worker
                # clogging the pool, innocent units used to expire on
                # queue wait alone, eat their whole retry budget and get
                # quarantined without ever running.  Holding them in our
                # own queue keeps their clocks stopped until a worker is
                # actually free.
                ready = [att for att in queue if att.not_before <= now]
                for att in ready:
                    if len(inflight) >= workers:
                        break
                    queue.remove(att)
                    served, remaining = self._probe_retry_cache(att)
                    yield from served
                    if not remaining:
                        pool_failures = 0
                        continue
                    att.unit = WorkUnit(index=att.unit.index,
                                        specs=remaining,
                                        cost=att.unit.cost)
                    if pool is None and self.mode != "serial":
                        pool = self._spawn_pool(workers)
                    if pool is None:
                        yield from self._run_inline(att, use_cache, queue,
                                                    rng)
                        continue
                    try:
                        future = pool.submit(
                            _run_unit, remaining,
                            [self._disk_keys.get(spec) for spec in remaining],
                            self._engine, use_cache)
                    except Exception as error:
                        if not self.supervised:
                            raise
                        # A worker crash is often noticed at *submit*
                        # time (the executor marks itself broken).  The
                        # attempt being submitted did not fail — requeue
                        # it untouched; every in-flight attempt on the
                        # broken pool is failed and retried.
                        queue.appendleft(att)
                        self._kill_pool(pool)
                        pool = None
                        for iatt, _deadline in list(inflight.values()):
                            self._fail_attempt(
                                iatt, "crash",
                                f"execution pool broke: {error}", queue,
                                now, rng)
                        inflight.clear()
                        pool_failures = self._note_pool_failure(
                            pool_failures)
                        break
                    deadline = now + self.unit_timeout \
                        if self.unit_timeout is not None else None
                    inflight[future] = (att, deadline)
                if not inflight:
                    if queue:
                        # Everything is backing off: sleep to the next
                        # eligible attempt.
                        wake = min(att.not_before for att in queue)
                        pause = max(0.0, wake - time.monotonic())
                        if pause:
                            metrics.counter(
                                "supervisor.backoff_seconds").inc(pause)
                            time.sleep(pause)
                    continue

                deadlines = [dl for _, dl in inflight.values()
                             if dl is not None]
                timeout = max(0.0, min(deadlines) - time.monotonic()) \
                    if deadlines else None
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                broken = False
                for future in done:
                    att, _deadline = inflight.pop(future)
                    try:
                        pairs, spans, shipped = future.result()
                    except Exception as error:
                        if not self.supervised:
                            raise
                        broken = broken \
                            or isinstance(error, BrokenProcessPool)
                        self._fail_attempt(
                            att, *_failure_kind(error), queue, now, rng,
                            culprit=getattr(error, "repro_failed_cell",
                                            None))
                        continue
                    pool_failures = 0
                    tracing.adopt(spans)
                    metrics.absorb(shipped)
                    remote = self.mode == "process"
                    for spec, result in pairs:
                        if remote:
                            # The worker simulated in its own process:
                            # mirror the result into this process's
                            # counters and memo.
                            note_remote_result(spec, result,
                                               use_cache=use_cache)
                        yield spec, result

                expired = [
                    future for future, (att, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                    and not future.done()
                ]
                if expired or broken:
                    # The pool is compromised: a hung worker (kill it)
                    # or a dead one (the executor is broken anyway).
                    # Every in-flight attempt is failed and requeued;
                    # innocents replay almost for free via the disk
                    # cache re-probe.
                    self._kill_pool(pool)
                    pool = None
                    for future, (att, deadline) in list(inflight.items()):
                        if future in expired:
                            kind, message = "timeout", (
                                f"unit exceeded --unit-timeout "
                                f"{self.unit_timeout}s")
                        elif broken:
                            kind, message = "crash", \
                                "worker process died mid-unit"
                        else:
                            kind, message = "reset", \
                                "pool reset after a hung unit"
                        self._fail_attempt(att, kind, message, queue,
                                           now, rng)
                    inflight.clear()
                    pool_failures = self._note_pool_failure(pool_failures)
        finally:
            # Reached on exhaustion, on an error, and when the consumer
            # abandons the iterator (interrupt).  Units still in flight
            # under a timeout may be hung: kill the pool.  Otherwise
            # cancel every unit that has not started and wait only for
            # in-flight ones.
            if pool is not None and inflight \
                    and self.unit_timeout is not None:
                self._kill_pool(pool)
            elif pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


class SerialBackend(Backend):
    """No pool: cells run inline, one at a time — the reference order."""

    name = "serial"


class ThreadBackend(Backend):
    """A thread pool sharing this process's memo and warm caches."""

    name = "thread"

    def _make_pool(self, workers: int):
        return ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-sweep",
        )


class ProcessBackend(Backend):
    """A process pool: true parallel simulation across cores."""

    name = "process"

    def _make_pool(self, workers: int):
        from repro.workloads.profiles import iter_profiles
        # Forked workers inherit this heap: collected and frozen first,
        # they never rescan it, nor copy its pages on write by doing so.
        heap.settle()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_worker_init,
            initargs=(iter_profiles(), tracing.enabled()),
        )


#: Registered backends, by CLI name.
BACKENDS: Dict[str, Type[Backend]] = {
    backend.name: backend
    for backend in (SerialBackend, ThreadBackend, ProcessBackend)
}


def get_backend(name: str, max_workers: int = 1, **budgets) -> Backend:
    """Construct the backend called *name* with *max_workers* workers
    and the policy's *budgets* (:class:`Backend`'s other arguments).

    A pool backend with a single worker is collapsed to
    :class:`SerialBackend`: one thread or one child process executes
    the same units in the same order through the same per-unit code
    path (journal writes, progress events and counter accounting are
    backend-independent), but pays pool construction, pickling and IPC
    for nothing — on a 1-core machine the "parallel" path used to run
    ~15% *slower* than serial.
    """
    try:
        factory = BACKENDS[str(name).lower()]
    except KeyError:
        raise ReproError(
            f"unknown execution backend {name!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None
    if max_workers <= 1:
        factory = SerialBackend
    return factory(max_workers=max_workers, **budgets)


__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "CellResult",
    "_ensure_picklable",
    "worker_shipment",
]
