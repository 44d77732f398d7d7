"""Process-wide metrics registry: counters, gauges, histograms.

One registry per process, guarded by a single reentrant module lock
(the ``_SIM_LOCK`` pattern the RPR004 fork-safety rule enforces): the
thread backend increments instruments from many threads concurrently,
and a bare ``n += 1`` loses updates.  Process-pool workers accumulate
into their *own* registry — the sweep scheduler mirrors worker-side
simulations into the parent exactly as it always has
(:func:`repro.core.sweep.note_remote_result`), so parent-side deltas
stay authoritative for accounting.

Instrument naming scheme (dotted, lowercase, ``subsystem.event``):

* ``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
  ``cache.corrupt`` — the disk-cache counters.
* ``sweep.simulations`` / ``sweep.quarantines`` / ``sweep.memo_hits``
  / ``sweep.cells`` — scheduler accounting.
* ``supervisor.retries`` / ``supervisor.quarantines`` /
  ``supervisor.degrades`` / ``supervisor.backoff_seconds`` — fault
  tolerance.
* ``journal.writes`` / ``journal.crc_dropped`` — run-journal health.
* ``chunking.units`` / ``chunking.cells`` / ``chunking.last_*`` —
  work-unit scheduling decisions.
* ``engine.phase.<mode>`` (histogram) — the engine phase timing
  hook (:mod:`repro.obs.profile`).
* ``engine.columnar_cells`` / ``engine.fallback_cells`` /
  ``engine.fallback.<scheme>`` and the ``engine.requested`` gauge —
  which engine ran each cell (:mod:`repro.core.engine_select`).

The registry is append-only within a process: instruments are created
on first use and live forever.  :func:`snapshot` captures every value;
:func:`delta` subtracts two snapshots, which is how the CLI's stderr
accounting line and the run manifest are guaranteed to agree — both
render the same snapshot delta.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

#: Guards every instrument's state and the instrument tables.  Reentrant
#: so :func:`snapshot` can read instrument values while holding it.
_REGISTRY_LOCK = threading.RLock()

_COUNTERS: Dict[str, "Counter"] = {}
_GAUGES: Dict[str, "Gauge"] = {}
_HISTOGRAMS: Dict[str, "Histogram"] = {}


class Counter:
    """A monotonically-increasing value (int or float amounts)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount=1) -> None:
        with _REGISTRY_LOCK:
            self._value += amount

    @property
    def value(self):
        with _REGISTRY_LOCK:
            return self._value

    def reset(self) -> None:
        with _REGISTRY_LOCK:
            self._value = 0


class Gauge:
    """A point-in-time value (numeric, or a label like a backend name)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Any = None

    def set(self, value: Any) -> None:
        with _REGISTRY_LOCK:
            self._value = value

    @property
    def value(self) -> Any:
        with _REGISTRY_LOCK:
            return self._value

    def reset(self) -> None:
        with _REGISTRY_LOCK:
            self._value = None


class Histogram:
    """Streaming summary of observed values: count/sum/min/max.

    Deliberately bucket-free: the consumers (run manifest, Prometheus
    snapshot) want totals and extremes, and a fixed-bucket histogram
    would need per-instrument tuning to be meaningful.
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        with _REGISTRY_LOCK:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def value(self) -> Dict[str, Any]:
        with _REGISTRY_LOCK:
            return {"count": self._count, "sum": self._sum,
                    "min": self._min, "max": self._max}

    def merge(self, stats: Dict[str, Any]) -> None:
        """Fold another histogram's count/sum/min/max into this one."""
        with _REGISTRY_LOCK:
            self._count += int(stats.get("count", 0))
            self._sum += float(stats.get("sum", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                value = stats.get(bound)
                if value is None:
                    continue
                current = self._min if bound == "min" else self._max
                merged = value if current is None else pick(current, value)
                if bound == "min":
                    self._min = merged
                else:
                    self._max = merged

    def reset(self) -> None:
        with _REGISTRY_LOCK:
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None


def counter(name: str) -> Counter:
    """The process-wide counter *name* (created on first use)."""
    with _REGISTRY_LOCK:
        instrument = _COUNTERS.get(name)
        if instrument is None:
            instrument = Counter(name)
            _COUNTERS[name] = instrument
        return instrument


def gauge(name: str) -> Gauge:
    """The process-wide gauge *name* (created on first use)."""
    with _REGISTRY_LOCK:
        instrument = _GAUGES.get(name)
        if instrument is None:
            instrument = Gauge(name)
            _GAUGES[name] = instrument
        return instrument


def histogram(name: str) -> Histogram:
    """The process-wide histogram *name* (created on first use)."""
    with _REGISTRY_LOCK:
        instrument = _HISTOGRAMS.get(name)
        if instrument is None:
            instrument = Histogram(name)
            _HISTOGRAMS[name] = instrument
        return instrument


def snapshot() -> Dict[str, Dict[str, Any]]:
    """Point-in-time copy of every instrument's value.

    ``{"counters": {name: n}, "gauges": {name: v},
    "histograms": {name: {count, sum, min, max}}}`` — plain JSON-ready
    data, safe to hold across further updates.
    """
    with _REGISTRY_LOCK:
        return {
            "counters": {name: inst.value
                         for name, inst in sorted(_COUNTERS.items())},
            "gauges": {name: inst.value
                       for name, inst in sorted(_GAUGES.items())},
            "histograms": {name: inst.value
                           for name, inst in sorted(_HISTOGRAMS.items())},
        }


def delta(before: Dict[str, Dict[str, Any]],
          after: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Subtract snapshot *before* from *after*.

    Counters and histogram count/sum subtract (instruments absent from
    *before* count from zero); gauges keep their *after* value — a
    gauge is a reading, not an accumulation.
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    for name, value in after.get("histograms", {}).items():
        base = before.get("histograms", {}).get(
            name, {"count": 0, "sum": 0.0})
        histograms[name] = {
            "count": value["count"] - base.get("count", 0),
            "sum": value["sum"] - base.get("sum", 0.0),
            "min": value["min"],
            "max": value["max"],
        }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


def counter_delta(d: Dict[str, Dict[str, Any]], name: str):
    """Convenience: one counter's value out of a snapshot/delta dict."""
    return d.get("counters", {}).get(name, 0)


def absorb(shipped: Dict[str, Dict[str, Any]]) -> None:
    """Fold a worker process's metric delta into this registry.

    Counters add, histograms merge; gauges are ignored (a worker's
    point-in-time reading is not meaningful in the parent).  The
    *shipper* decides which instruments travel — see
    ``repro.core.exec.backends._run_unit``, which excludes counters the
    parent already accounts for itself (probe misses, simulations).
    """
    for name, value in (shipped.get("counters") or {}).items():
        if value:
            counter(name).inc(value)
    for name, stats in (shipped.get("histograms") or {}).items():
        if stats.get("count"):
            histogram(name).merge(stats)


def reset_all() -> None:
    """Zero every instrument (tests; compatibility reset hooks)."""
    with _REGISTRY_LOCK:
        for table in (_COUNTERS, _GAUGES, _HISTOGRAMS):
            for instrument in table.values():
                instrument.reset()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "delta",
    "counter_delta",
    "absorb",
    "reset_all",
]
