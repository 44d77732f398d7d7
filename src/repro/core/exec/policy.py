"""The execution policy: how a collection of cells is scheduled.

One frozen :class:`ExecutionPolicy` carries every parent-side
scheduling decision :func:`repro.core.sweep.run_specs` makes — backend,
worker cap, progress sink, run journal and the fault-tolerance budgets
of the one execution loop — and validates it once, at construction.
The CLI builds one policy per invocation and scopes it with
:func:`scoped_policy`; library callers pass per-call overrides
(keywords named exactly like the fields), which ``run_specs`` folds
into :func:`current_policy` in one ``replace``.

None of it reaches pool workers: what a worker needs per cell (the
disk-cache switch, telemetry sink and engine selection) still travels
through the environment.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from repro.core.exec.backends import BACKENDS, Backend, get_backend
from repro.core.exec.journal import RunJournal
from repro.core.exec.supervisor import DEFAULT_BACKOFF_BASE, \
    ON_ERROR_POLICIES, NotifyCallback
from repro.errors import ReproError


@dataclass(frozen=True)
class ExecutionPolicy:
    """Where and how the cells of one collection execute.

    Attributes:
        backend: a backend name (``serial``/``thread``/``process``), or
            None for the automatic choice (:func:`auto_backend`).
        max_workers: pool size cap (None = the CPUs this process may
            use, :func:`usable_cpus`), clamped to the pending work.
        progress: callback receiving structured
            :class:`~repro.core.exec.ProgressEvent` values.
        journal: a :class:`~repro.core.exec.RunJournal` (or the path of
            one) recording every resolved cell, so an interrupted
            collection resumes with zero recomputation.
        retries: per-unit retry budget.
        unit_timeout: per-unit wall-clock timeout in seconds.
        on_error: ``fail`` (raise on the first cell that exhausts its
            retries), ``skip`` (quarantine it and keep going) or
            ``degrade`` (skip plus backend fallback process → thread →
            serial).  These three budgets configure the execution loop
            (DESIGN.md Section 11); at their defaults it supervises
            nothing and the first failing cell's error propagates.
    """

    backend: Optional[str] = None
    max_workers: Optional[int] = None
    progress: Optional[Callable] = None
    journal: Union[str, RunJournal, None] = None
    retries: int = 0
    unit_timeout: Optional[float] = None
    on_error: str = "fail"

    def __post_init__(self) -> None:
        if self.backend is not None:
            name = str(self.backend).lower()
            if name not in BACKENDS:
                raise ReproError(
                    f"unknown execution backend {self.backend!r} "
                    f"(--backend); choose from {sorted(BACKENDS)}"
                )
            object.__setattr__(self, "backend", name)
        if self.max_workers is not None and self.max_workers < 1:
            raise ReproError("--max-workers needs at least one worker")
        if self.retries < 0:
            raise ReproError("--retries must be >= 0")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ReproError("--unit-timeout must be positive")
        on_error = self.on_error.lower()
        if on_error not in ON_ERROR_POLICIES:
            raise ReproError(
                f"unknown --on-error policy {self.on_error!r}; choose "
                f"from {ON_ERROR_POLICIES}"
            )
        object.__setattr__(self, "on_error", on_error)

    def make_backend(self, n_pending: int,
                     notify: Optional[NotifyCallback] = None,
                     backoff_base: float = DEFAULT_BACKOFF_BASE) -> Backend:
        """The backend for *n_pending* cells, workers clamped to them,
        its loop configured with this policy's budgets."""
        cap = self.max_workers or usable_cpus()
        workers = max(1, min(cap, n_pending))
        chosen = self.backend if self.backend is not None \
            else auto_backend(workers)
        return get_backend(chosen, max_workers=workers,
                           retries=self.retries,
                           unit_timeout=self.unit_timeout,
                           on_error=self.on_error, notify=notify,
                           backoff_base=backoff_base)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform exposes one (``taskset``, container CPU sets), else the
    machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def auto_backend(workers: int) -> str:
    """The backend when none is named: a process pool when more than
    one worker has work and this process may use more than one CPU,
    else serial (a pool of one costs spawn overhead and buys nothing)."""
    if workers > 1 and usable_cpus() > 1:
        return "process"
    return "serial"


_CURRENT: contextvars.ContextVar[ExecutionPolicy] = contextvars.ContextVar(
    "repro_execution_policy", default=ExecutionPolicy())


def current_policy() -> ExecutionPolicy:
    """The policy in scope (the all-defaults policy outside any scope)."""
    return _CURRENT.get()


@contextlib.contextmanager
def scoped_policy(policy: ExecutionPolicy) -> Iterator[ExecutionPolicy]:
    """Make *policy* current for the ``with`` block, restoring the
    previous one however the block exits."""
    token = _CURRENT.set(policy)
    try:
        yield policy
    finally:
        _CURRENT.reset(token)


__all__ = [
    "ExecutionPolicy",
    "auto_backend",
    "current_policy",
    "scoped_policy",
    "usable_cpus",
]
