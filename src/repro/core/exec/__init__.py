"""Execution backends, chunking, journalling and progress for sweeps.

This package is the scheduling substrate under
:func:`repro.core.sweep.run_specs` (DESIGN.md Section 10): *what* to
simulate stays in the sweep layer, *how and where* lives here.

* :mod:`~repro.core.exec.backends` — the one execution loop every
  sweep drains through (:class:`Backend`) and its serial/thread/process
  pool factories, all bit-identical.
* :mod:`~repro.core.exec.chunking` — cost-based grouping of cells into
  work units, drained work-stealing-style by pool workers.
* :mod:`~repro.core.exec.journal` — the append-only run journal that,
  together with the disk cache, makes interrupted sweeps resumable
  with zero recomputation.
* :mod:`~repro.core.exec.progress` — structured progress events
  (cells done / simulated / cached, cost-weighted ETA) for the CLI.
* :mod:`~repro.core.exec.supervisor` — the loop's failure records and
  retry constants (timeouts, seeded retry/backoff, quarantine,
  graceful degradation — DESIGN.md Section 11).
* :mod:`~repro.core.exec.faults` — deterministic, seeded fault
  injection: the test harness that proves the supervisor works.
* :mod:`~repro.core.exec.policy` — the frozen :class:`ExecutionPolicy`
  (backend, workers, progress, journal, retries, timeout, on-error,
  engine, disk cache, telemetry) the CLI scopes per invocation and
  ``run_specs`` resolves per call;
  its budgets configure the loop, which supervises nothing at the
  defaults.

None of it affects simulation output, so the package is excluded from
the disk cache's engine fingerprint: scheduler changes never invalidate
cached results.
"""

from repro.core.exec.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.core.exec.chunking import UNITS_PER_WORKER, WorkUnit, \
    chunk_specs, spec_cost
from repro.core.exec.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
)
from repro.core.exec.journal import RunJournal, invocation_id, journals_dir
from repro.core.exec.progress import (
    ProgressEvent,
    ProgressTracker,
    stderr_progress,
)
from repro.core.exec.supervisor import (
    ON_ERROR_POLICIES,
    CellFailure,
    FailureReport,
    SupervisorEvent,
)
from repro.core.exec.policy import ExecutionPolicy, auto_backend, \
    current_policy, scoped_policy, usable_cpus

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "WorkUnit",
    "chunk_specs",
    "spec_cost",
    "UNITS_PER_WORKER",
    "RunJournal",
    "invocation_id",
    "journals_dir",
    "ProgressEvent",
    "ProgressTracker",
    "stderr_progress",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedCrash",
    "active_plan",
    "FailureReport",
    "CellFailure",
    "SupervisorEvent",
    "ON_ERROR_POLICIES",
    "ExecutionPolicy",
    "auto_backend",
    "current_policy",
    "scoped_policy",
    "usable_cpus",
]
