"""Span-based tracing across the sweep scheduler and every backend.

A span is one timed region — ``span("simulate", spec_key=...)`` — with
a name, attributes, a wall-clock start (``time.time``, comparable
across processes), a monotonic duration (``time.perf_counter``), and a
parent: the innermost span open *on the same thread*, or, for spans
started on worker threads with an empty stack, the current **anchor**
span (the scheduler's ``execute`` span marks itself as anchor, which is
how thread-pool worker spans nest under the sweep instead of floating
as roots).

Collection is off by default and costs one integer test per
``span()`` call when off: :func:`span` yields without allocating
anything unless :func:`enabled` — a scoped :func:`enable`, which the
CLI enters when telemetry is on (``--telemetry`` or
``REPRO_TELEMETRY``, resolved into the execution policy) and tests and
tools enter directly.  Process-pool workers collect when the parent
did at pool creation (the pool initializer's :func:`mark_worker`).
Results are bit-identical either way; tracing only ever *reads* the
engine.

The first span a telemetry-enabled process opens also installs the
collector accounting hook (:mod:`repro.obs.gcstats`).

Cross-process merge: a :class:`~repro.core.exec.backends.ProcessBackend`
worker buffers its spans in its own interpreter; the shared worker
entry point (``_run_unit``) drains that buffer and ships the records
home with the unit's results, where the parent re-parents orphan roots
under the active anchor (:func:`adopt`).  Span ids embed the producing
pid, so merged records never collide.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs import gcstats

_TRACE_LOCK = threading.Lock()

#: Finished span records, appended as spans close (children before
#: parents).  Worker processes drain this per unit; the parent drains
#: it once per CLI invocation into the run manifest.
_RECORDS: List[Dict[str, Any]] = []

#: Stack of anchor span ids (innermost last): the adoption parent for
#: spans that start with no same-thread parent and for merged worker
#: records.
_ANCHORS: List[str] = []

#: Depth of scoped :func:`enable` calls (collection forced on).
_forced = 0

#: True in process-pool workers (set by the pool initializer), which is
#: what tells ``_run_unit`` to drain and ship its buffer.
_worker = False

_SEQ = itertools.count(1)
_STACK = threading.local()


def enabled() -> bool:
    """Whether spans are being collected in this process."""
    return _forced > 0


@contextlib.contextmanager
def enable() -> Iterator[None]:
    """Force collection on inside the ``with`` block (tests, tools)."""
    global _forced
    with _TRACE_LOCK:
        _forced += 1
    try:
        yield
    finally:
        with _TRACE_LOCK:
            _forced -= 1


def mark_worker(collect: bool) -> None:
    """Flag this process as a pool worker (ships spans per unit) that
    collects spans exactly when *collect* (the parent's setting)."""
    global _forced, _worker
    with _TRACE_LOCK:
        _worker = True
        _forced = int(collect)


def in_worker() -> bool:
    return _worker


def _frames() -> List[str]:
    frames = getattr(_STACK, "frames", None)
    if frames is None:
        frames = []
        _STACK.frames = frames
    return frames


def current_anchor() -> Optional[str]:
    with _TRACE_LOCK:
        return _ANCHORS[-1] if _ANCHORS else None


@contextlib.contextmanager
def span(name: str, anchor: bool = False,
         **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
    """Time a region as a span named *name* with attributes *attrs*.

    Yields the (mutable) span record when collection is on, else None.
    ``anchor=True`` additionally makes this span the adoption parent
    for orphan spans opened while it is active (see module docstring).
    """
    if not enabled():
        yield None
        return
    gcstats.watch(enabled)
    frames = _frames()
    parent = frames[-1] if frames else current_anchor()
    span_id = f"{os.getpid()}-{next(_SEQ)}"
    record: Dict[str, Any] = {
        "name": name,
        "span_id": span_id,
        "parent_id": parent,
        "pid": os.getpid(),
        "start": time.time(),
        "attrs": dict(attrs),
    }
    frames.append(span_id)
    if anchor:
        with _TRACE_LOCK:
            _ANCHORS.append(span_id)
    begun = time.perf_counter()
    try:
        yield record
    finally:
        record["duration"] = time.perf_counter() - begun
        frames.pop()
        with _TRACE_LOCK:
            if anchor:
                _ANCHORS.remove(span_id)
            _RECORDS.append(record)


def drain() -> List[Dict[str, Any]]:
    """Remove and return every finished record (worker-side shipping)."""
    with _TRACE_LOCK:
        records = list(_RECORDS)
        _RECORDS.clear()
    return records


def records() -> List[Dict[str, Any]]:
    """Copy of the finished records collected so far."""
    with _TRACE_LOCK:
        return list(_RECORDS)


def adopt(shipped: Sequence[Dict[str, Any]],
          parent_id: Optional[str] = None) -> None:
    """Merge worker-shipped records, re-parenting orphan roots.

    Records whose parent travelled with them keep their structure; a
    root whose parent stayed behind in the worker's dropped state (or
    never existed) is re-parented under *parent_id* (default: the
    current anchor — the scheduler's ``execute`` span).
    """
    if not shipped:
        return
    if parent_id is None:
        parent_id = current_anchor()
    local_ids = {record.get("span_id") for record in shipped}
    with _TRACE_LOCK:
        for record in shipped:
            if record.get("parent_id") not in local_ids:
                record = dict(record)
                record["parent_id"] = parent_id
            _RECORDS.append(record)


def reset() -> None:
    """Drop every collected record (tests; invocation boundaries)."""
    with _TRACE_LOCK:
        _RECORDS.clear()


def tree_lines(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Render span records as an indented tree with self/total times.

    ``total`` is the span's own duration; ``self`` subtracts the summed
    durations of its direct children (clamped at zero — concurrent
    children on a pool can legitimately sum past their parent's wall
    clock).  Siblings order by wall-clock start.
    """
    by_id = {record["span_id"]: record for record in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("start", 0.0), r["span_id"]))

    lines: List[str] = []

    def emit(record: Dict[str, Any], depth: int) -> None:
        kids = children.get(record["span_id"], [])
        total = float(record.get("duration", 0.0))
        self_time = max(
            0.0, total - sum(float(k.get("duration", 0.0)) for k in kids))
        attrs = record.get("attrs") or {}
        label = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        label = f" [{label}]" if label else ""
        lines.append(f"{'  ' * depth}{record['name']}{label}  "
                     f"total={total * 1000.0:.1f}ms "
                     f"self={self_time * 1000.0:.1f}ms")
        for kid in kids:
            emit(kid, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return lines


__all__ = [
    "enabled",
    "enable",
    "mark_worker",
    "in_worker",
    "span",
    "current_anchor",
    "drain",
    "records",
    "adopt",
    "reset",
    "tree_lines",
]
