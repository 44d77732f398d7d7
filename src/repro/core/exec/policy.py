"""The execution policy: how a collection of cells is configured.

One frozen :class:`ExecutionPolicy` carries every setting
:func:`repro.core.sweep.run_specs` needs — backend, worker cap,
progress sink, run journal, the fault-tolerance budgets of the one
execution loop, and the engine, disk-cache and telemetry settings —
and validates it once, at construction.  The CLI builds one policy per
invocation and scopes it with :func:`scoped_policy`; library callers
pass per-call overrides (keywords named exactly like the fields),
which ``run_specs`` folds into :func:`current_policy` in one
``replace``.

The three settings that also have an environment form
(``REPRO_ENGINE``, ``REPRO_DISK_CACHE``, ``REPRO_TELEMETRY``) are read
in one place, :meth:`ExecutionPolicy.resolved`, and only for fields
left unset; ``run_specs`` resolves once per call, never at import.
Pool workers never see the policy (a ``ContextVar`` reaches neither a
thread pool nor a process pool): each unit carries its engine name
and disk keys as arguments, and span collection reaches process
workers through the pool initializer.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

from repro.core.exec.backends import BACKENDS, Backend, get_backend
from repro.core.exec.journal import RunJournal
from repro.core.exec.supervisor import DEFAULT_BACKOFF_BASE, \
    ON_ERROR_POLICIES, NotifyCallback
from repro.errors import ReproError

#: Simulation engines, the default first.
ENGINES = ("interpreter", "columnar")


def _environment_settings() -> dict:
    """The environment forms of the engine, disk-cache and telemetry
    settings — the one place they are read."""
    env = os.environ
    return {
        "engine": env.get("REPRO_ENGINE", "").strip().lower()
        or ENGINES[0],
        "disk_cache": env.get("REPRO_DISK_CACHE", "1")
        not in ("0", "false", "no"),
        "telemetry": env.get("REPRO_TELEMETRY") or None,
    }


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
        engine: ``interpreter`` or ``columnar`` (bit-identical; cells
            the columnar core cannot replay fall back per cell).
        disk_cache: whether results persist to, and are served from,
            the disk cache (``--no-cache`` sets False).
        telemetry: the JSONL path progress events and the run manifest
            stream to (``--telemetry``), or None.

    ``engine``, ``disk_cache`` and ``telemetry`` left at None are
    unset: :meth:`resolved` fills them from the environment.
    """

    backend: Optional[str] = None
    max_workers: Optional[int] = None
    progress: Optional[Callable] = None
    journal: Union[str, RunJournal, None] = None
    retries: int = 0
    unit_timeout: Optional[float] = None
    on_error: str = "fail"
    engine: Optional[str] = None
    disk_cache: Optional[bool] = None
    telemetry: Optional[str] = None

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
        if self.engine is not None:
            engine = str(self.engine).strip().lower()
            if engine not in ENGINES:
                raise ReproError(
                    f"unknown engine {self.engine!r} (--engine or "
                    f"REPRO_ENGINE); choose from {', '.join(ENGINES)}"
                )
            object.__setattr__(self, "engine", engine)
        if self.disk_cache is not None \
                and not isinstance(self.disk_cache, bool):
            raise ReproError("disk_cache (--no-cache) must be a bool")
        if self.telemetry is not None and not self.telemetry:
            raise ReproError("--telemetry needs a path")

    def resolved(self) -> "ExecutionPolicy":
        """This policy with every unset setting read from its
        environment variable (engine, disk cache, telemetry)."""
        unset = {name: value
                 for name, value in _environment_settings().items()
                 if getattr(self, name) is None and value is not None}
        return replace(self, **unset) if unset else self

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
    "ENGINES",
    "ExecutionPolicy",
    "auto_backend",
    "current_policy",
    "scoped_policy",
    "usable_cpus",
]
