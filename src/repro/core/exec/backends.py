"""Pluggable execution backends for the sweep scheduler.

A :class:`Backend` executes :class:`~repro.core.exec.chunking.WorkUnit`
batches of canonical cells and yields ``(spec, result)`` pairs as they
complete.  Execution policy — where cells run — is the *only* thing a
backend decides; cells are independent deterministic simulations, so
every backend produces bit-identical results:

* :class:`SerialBackend` — in-process, one cell at a time.  Zero
  overhead, full determinism of completion order; the reference.
* :class:`ThreadBackend` — a thread pool in this process.  The engine
  is pure Python, so threads don't speed simulation up (the GIL), but
  they share the in-process memo and warm program/trace caches, cost
  nothing to spawn, and overlap the disk-cache I/O of warm sweeps —
  the right choice for cache-dominated or I/O-heavy collections, and
  for environments where ``fork``/``spawn`` is unavailable.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.
  ProcessPoolExecutor`.  True parallel simulation; workers keep warm
  program/trace caches across the cells of their units and persist
  every result to the shared disk cache the moment it is simulated
  (which is what makes interrupted sweeps resumable).

Units drain from the executor's shared queue longest-first, so an idle
worker always steals the next unit — the rebalancing half of the
chunking policy.  Interrupting the consuming iterator cancels every
unit that has not started and waits only for in-flight ones.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    ThreadPoolExecutor, wait
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Type

from repro.core.exec.chunking import WorkUnit
from repro.errors import ReproError
from repro.obs import metrics, tracing

#: Result pairs a backend yields: (canonical spec, simulation result).
CellResult = Tuple[Any, Any]

#: What a worker ships back per unit: the result pairs, the span
#: records its process buffered while executing them, and its metric
#: delta for the unit (both empty in thread pools and inline
#: execution, where spans and metrics land in the shared parent
#: registry directly).
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


def _run_unit(specs: Sequence[Any], use_cache: bool) -> UnitResult:
    """Execute one unit's cells in the current process/thread.

    Worker entry point for every backend: :func:`repro.core.sweep.
    run_spec` gives the executing context warm program/trace caches
    across the unit's cells and persists each simulated result to the
    shared disk cache immediately — a unit interrupted halfway loses
    only the cell in flight.

    In a process-pool worker the unit's span records are drained and
    shipped home with the results (the parent adopts them under its
    ``execute`` span) together with the worker's metric delta for the
    unit; elsewhere the records are already in the parent's tracer and
    the shipped payloads are empty.
    """
    from repro.core.sweep import run_spec
    in_worker = tracing.in_worker()
    before = metrics.snapshot() if in_worker else None
    with tracing.span("unit", cells=len(specs)):
        pairs = [(spec, run_spec(spec, use_cache=use_cache))
                 for spec in specs]
    if not in_worker:
        return pairs, [], {}
    shipped = metrics.delta(before, metrics.snapshot())
    counters = {name: value
                for name, value in shipped.get("counters", {}).items()
                if value and name not in _PARENT_ACCOUNTED}
    return pairs, tracing.drain(), {
        "counters": counters,
        "histograms": shipped.get("histograms", {}),
    }


def _process_worker_init(profiles) -> None:
    """Pool-worker initializer: mirror the parent's workload registry.

    Workers started by the ``spawn`` method (macOS/Windows defaults)
    re-import the package and therefore only see the profiles that
    register at import time — user registrations and ``replace=True``
    overrides made in the parent would be missing or stale.  The parent
    ships its full registry and the worker re-registers every entry.
    Under ``fork`` the worker inherits the registry together with the
    parent's memoised programs and traces, and re-registering evicts
    them: the worker regenerates every program it touches.
    """
    from repro.core.exec import faults
    from repro.workloads.profiles import register_profile
    faults.mark_worker()
    tracing.mark_worker()
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


class Backend:
    """Execution policy for a collection of work units.

    Subclasses set ``name`` (the CLI/registry identifier) and
    ``remote`` (True when cells simulate outside this process, so the
    parent must mirror the simulation count and memo — see
    :func:`repro.core.sweep.run_specs`), and implement :meth:`execute`.
    """

    name: str = "?"
    #: Cells simulate in another process: the parent mirrors counters.
    remote: bool = False

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ReproError(
                f"backend needs at least one worker, got {max_workers}"
            )
        self.max_workers = max_workers

    def execute(self, units: Sequence[WorkUnit],
                use_cache: bool = True) -> Iterator[CellResult]:
        """Yield every unit's ``(spec, result)`` pairs as they complete."""
        raise NotImplementedError


class SerialBackend(Backend):
    """In-process, one cell at a time — the reference execution order.

    Yields after *every* cell (not per unit), so journal records and
    progress events are exact even when the run is interrupted mid-unit.
    """

    name = "serial"

    def execute(self, units: Sequence[WorkUnit],
                use_cache: bool = True) -> Iterator[CellResult]:
        from repro.core.sweep import run_spec
        for unit in units:
            with tracing.span("unit", cells=len(unit.specs)):
                for spec in unit.specs:
                    yield spec, run_spec(spec, use_cache=use_cache)


class _PoolBackend(Backend):
    """Shared drain loop for the executor-backed backends."""

    _executor: Type

    def _make_pool(self, n_units: int):
        raise NotImplementedError

    def execute(self, units: Sequence[WorkUnit],
                use_cache: bool = True) -> Iterator[CellResult]:
        if not units:
            return
        pool = self._make_pool(len(units))
        try:
            futures = {pool.submit(_run_unit, unit.specs, use_cache)
                       for unit in units}
            while futures:
                finished, futures = wait(futures,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    pairs, spans, shipped = future.result()
                    tracing.adopt(spans)
                    metrics.absorb(shipped)
                    for pair in pairs:
                        yield pair
        finally:
            # Reached on exhaustion, on a worker error, and when the
            # consumer abandons the iterator (interrupt): cancel every
            # unit that has not started, wait only for in-flight ones.
            pool.shutdown(wait=True, cancel_futures=True)


class ThreadBackend(_PoolBackend):
    """A thread pool sharing this process's memo and warm caches."""

    name = "thread"

    def _make_pool(self, n_units: int):
        return ThreadPoolExecutor(
            max_workers=min(self.max_workers, n_units),
            thread_name_prefix="repro-sweep",
        )


class ProcessBackend(_PoolBackend):
    """A process pool: true parallel simulation across cores."""

    name = "process"
    remote = True

    def execute(self, units: Sequence[WorkUnit],
                use_cache: bool = True) -> Iterator[CellResult]:
        _ensure_picklable(units)
        return super().execute(units, use_cache=use_cache)

    def _make_pool(self, n_units: int):
        from repro.workloads.profiles import iter_profiles
        return ProcessPoolExecutor(
            max_workers=min(self.max_workers, n_units),
            initializer=_process_worker_init,
            initargs=(iter_profiles(),),
        )


#: Registered backends, by CLI name.
BACKENDS: Dict[str, Type[Backend]] = {
    backend.name: backend
    for backend in (SerialBackend, ThreadBackend, ProcessBackend)
}


def get_backend(backend, max_workers: int = 1) -> Backend:
    """Resolve *backend* (a name or a :class:`Backend` instance).

    Instances pass through untouched — callers with a configured
    backend keep their worker count; names construct a fresh backend
    with *max_workers*.

    A pool backend with a single worker is collapsed to
    :class:`SerialBackend`: one thread or one child process executes
    the same units in the same order through the same per-unit code
    path (journal writes, progress events and counter accounting are
    backend-independent), but pays pool construction, pickling and IPC
    for nothing — on a 1-core machine the "parallel" path used to run
    ~15% *slower* than serial.
    """
    if isinstance(backend, Backend):
        return backend
    try:
        name = str(backend).lower()
        factory = BACKENDS[name]
    except KeyError:
        raise ReproError(
            f"unknown execution backend {backend!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None
    if max_workers <= 1 and name in ("thread", "process"):
        return SerialBackend(max_workers=1)
    return factory(max_workers=max_workers)


__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "CellResult",
    "_ensure_picklable",
]
