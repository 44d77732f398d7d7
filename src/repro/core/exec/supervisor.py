"""Failure records and retry constants of the execution loop.

Every sweep drains through one loop, :meth:`repro.core.exec.backends.
Backend.execute` (DESIGN.md Sections 10 and 11); the
:class:`~repro.core.exec.ExecutionPolicy`'s budgets configure it.  With
a budget, the loop gives every work unit:

* a **per-unit wall-clock timeout** (``unit_timeout``) — a hung worker
  is detected, its pool killed (process mode) or abandoned (thread
  mode), and the unit retried;
* **retry with seeded exponential backoff + jitter** — transient
  failures heal, and because the jitter RNG is seeded the retry
  schedule is reproducible;
* **unit splitting on retry** — a failing multi-cell unit re-runs as
  per-cell singleton units, so one poison cell cannot take its
  unit-mates down with it (their results are cheap to replay: every
  already-simulated cell was persisted to the disk cache, and retries
  re-probe it in the parent before resubmitting);
* **quarantine** — a cell that exhausts its attempts is recorded in a
  structured :class:`FailureReport` (and, via the loop's event
  callback, in the run journal as a ``cell_failed`` record) and the
  sweep completes with N-k cells instead of dying;
* **graceful degradation** (``on_error="degrade"``) — when the
  execution substrate itself is unrecoverable (a pool that keeps
  breaking without progress, a pool that cannot even be built,
  un-picklable work) the loop falls back process → thread → serial
  and keeps going, emitting a ``degrade`` event.

``on_error`` policies: ``"fail"`` raises a :class:`ReproError` at the
first quarantine (after retries are exhausted), ``"skip"`` quarantines
and continues on the same backend, and ``"degrade"`` additionally
allows the backend fallback chain.  The default policy (no retries, no
timeout, ``"fail"``) supervises nothing: the first failing cell's own
exception propagates, with no split, no re-run and no backoff.

This module holds the records the loop fills and the constants it
follows; the loop itself lives in :mod:`~repro.core.exec.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: ``on_error`` policies, in increasing tolerance.
ON_ERROR_POLICIES = ("fail", "skip", "degrade")

#: Consecutive pool-level failures without a completed unit before the
#: loop degrades to the next execution mode.
DEGRADE_AFTER = 2

#: Default backoff schedule: ``base * 2**(attempt-1)``, jittered by up
#: to +100% (seeded), capped at ``cap`` seconds.
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: the spec plus its full attempt history.

    ``attempts`` is a list of ``{"attempt", "mode", "kind", "error"}``
    dicts (``kind`` is ``timeout``/``crash``/``error``/``reset``);
    ``carried`` marks quarantines inherited from a resumed journal
    rather than decided in this invocation.
    """

    spec: Any
    attempts: Tuple[Dict[str, Any], ...] = ()
    carried: bool = False

    @property
    def error(self) -> str:
        return self.attempts[-1]["error"] if self.attempts \
            else "quarantined by a previous invocation"


@dataclass
class FailureReport:
    """Structured outcome of one execution of the loop."""

    cells: List[CellFailure] = field(default_factory=list)
    #: Retry attempts performed (re-submissions, including splits).
    retries: int = 0
    #: Mode transitions taken, e.g. ``[("process", "thread")]``.
    degraded: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        return len(self.cells)

    def summary(self) -> str:
        parts = [f"{self.quarantined} quarantined",
                 f"{self.retries} retries"]
        if self.degraded:
            chain = " -> ".join([self.degraded[0][0]]
                                + [to for _, to in self.degraded])
            parts.append(f"degraded {chain}")
        return ", ".join(parts)


@dataclass(frozen=True)
class SupervisorEvent:
    """Supervision event delivered to the ``notify`` callback.

    ``kind`` is ``retry``, ``quarantine`` or ``degrade``; ``spec`` is
    set for quarantines, ``unit_size``/``attempt``/``delay`` describe
    retries, and ``mode``/``to_mode`` describe degradations.
    """

    kind: str
    spec: Any = None
    unit_size: int = 1
    attempt: int = 0
    mode: str = ""
    to_mode: str = ""
    error: str = ""
    delay: float = 0.0
    attempts: Tuple[Dict[str, Any], ...] = ()


NotifyCallback = Callable[[SupervisorEvent], None]


__all__ = [
    "FailureReport",
    "CellFailure",
    "SupervisorEvent",
    "NotifyCallback",
    "ON_ERROR_POLICIES",
    "DEGRADE_AFTER",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
]
