"""Cyclic garbage-collector accounting while telemetry is on.

A ``gc.callbacks`` hook counts every collection by generation
(``gc.collections.gen0`` .. ``gc.collections.gen2``) and the seconds the
process spent paused in them (``gc.pause_s``).  After each full
collection it also records how many objects :func:`gc.freeze` keeps off
the collector (the ``gc.frozen`` gauge; :func:`note_frozen` refreshes it
at the end of an invocation).  The counters live in the process's
:mod:`repro.obs.metrics` registry, so pool workers ship their deltas
home with the other counters and ``repro stats`` prints a ``gc:`` line
(DESIGN.md Section 13).

The hook is installed by the first span a telemetry-enabled process
opens (:func:`repro.obs.tracing.span`) and stays installed: a
fork-started pool worker inherits it, a spawned one installs its own.
While telemetry is off it only checks the switch.  It takes only the
metrics registry's reentrant lock and creates no instrument once
installed, so a collection that starts inside a metrics update on the
same thread can neither deadlock nor change the registry's tables.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Callable, Optional

from repro.obs import metrics

#: Guards installation of the process's one hook.
_WATCH_LOCK = threading.Lock()

#: The installed hook, or None before the first telemetry-on span.
_watch: Optional["_Watch"] = None


class _Watch:
    """The ``gc.callbacks`` entry: counts collections and pause time."""

    def __init__(self, enabled: Callable[[], bool]) -> None:
        self.enabled = enabled
        self.collections = [metrics.counter(f"gc.collections.gen{gen}")
                            for gen in range(3)]
        self.pause = metrics.counter("gc.pause_s")
        self.frozen = metrics.gauge("gc.frozen")
        # Collections never overlap (the interpreter runs one at a
        # time), so one start mark serves every thread.
        self.started: Optional[float] = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.perf_counter() if self.enabled() else None
            return
        if self.started is None:
            return
        self.pause.inc(time.perf_counter() - self.started)
        self.started = None
        generation = info["generation"]
        self.collections[generation].inc()
        if generation == 2:
            self.frozen.set(gc.get_freeze_count())


def watch(enabled: Callable[[], bool]) -> None:
    """Install the hook once per process; it counts while *enabled()*."""
    global _watch
    if _watch is not None:
        return
    with _WATCH_LOCK:
        if _watch is None:
            _watch = _Watch(enabled)
            gc.callbacks.append(_watch)


def note_frozen() -> None:
    """Record the current frozen-object count (a no-op before the hook
    is installed, i.e. when telemetry never ran in this process)."""
    if _watch is not None:
        _watch.frozen.set(gc.get_freeze_count())


__all__ = ["watch", "note_frozen"]
