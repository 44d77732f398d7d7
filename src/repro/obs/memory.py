"""Peak memory per process and the trace memo's state, for run manifests.

Each process records its peak resident set (``ru_maxrss``) as one
observation of its own histogram, ``memory.peak_rss_mb.<pid>``: the
parent just before its manifest is built (the CLI's cell accounting),
a pool worker with every unit it ships home
(:func:`repro.core.exec.backends.worker_shipment`).  Histograms merge
by count, sum, min and max, so the parent keeps each process's peak as
a max, never a sum, and a run's delta names exactly the processes that
reported during the run.  :func:`section` turns one delta into the
manifest's ``memory`` section, beside the trace memo's gauges and
counters (``memo.*``, kept by :mod:`repro.workloads.profiles`), and
``repro stats`` prints it as the ``memory:`` line (DESIGN.md
Section 13).
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

from repro.obs import metrics

try:
    import resource
except ImportError:  # pragma: no cover - not a Unix host
    resource = None  # type: ignore[assignment]

#: Histogram name prefix; the suffix is the reporting process's pid.
PEAK_PREFIX = "memory.peak_rss_mb."


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set in MB (None where unknown)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def note_peak() -> None:
    """Record this process's peak resident set so far."""
    peak = peak_rss_mb()
    if peak is not None:
        metrics.histogram(f"{PEAK_PREFIX}{os.getpid()}").observe(peak)


def section(delta: Dict[str, Dict], parent_pid: int) \
        -> Optional[Dict[str, Any]]:
    """The manifest's ``memory`` section from one run's metric *delta*:
    the parent's and the largest worker's peak, every reporting
    process's peak by pid, and the trace memo.  None when the run
    recorded neither peaks nor trace memo activity."""
    peaks = {name[len(PEAK_PREFIX):]: stats["max"]
             for name, stats in delta.get("histograms", {}).items()
             if name.startswith(PEAK_PREFIX) and stats.get("count")}
    counters = delta.get("counters", {})
    gauges = delta.get("gauges", {})
    memo = {
        "traces_held": gauges.get("memo.traces_held"),
        "trace_bytes": gauges.get("memo.trace_bytes"),
        "trace_hits": counters.get("memo.trace_hits", 0),
        "trace_evictions": counters.get("memo.trace_evictions", 0),
    }
    if not peaks and memo["traces_held"] is None:
        return None
    workers = [peak for pid, peak in peaks.items()
               if pid != str(parent_pid)]
    return {
        "parent_peak_mb": peaks.get(str(parent_pid)),
        "worker_peak_mb": max(workers, default=None),
        "peak_mb_by_pid": dict(sorted(peaks.items())),
        "trace_memo": memo,
    }


def render(memory: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``memory:`` line of ``repro stats``, or None without data."""
    if not memory:
        return None
    parts = []
    if memory.get("parent_peak_mb") is not None:
        parts.append(f"parent peak {memory['parent_peak_mb']:.1f} MB")
    workers = len(memory.get("peak_mb_by_pid", {})) \
        - (memory.get("parent_peak_mb") is not None)
    if memory.get("worker_peak_mb") is not None:
        parts.append(f"{workers} worker{'s' if workers != 1 else ''} "
                     f"up to {memory['worker_peak_mb']:.1f} MB")
    memo = memory.get("trace_memo") or {}
    if memo.get("traces_held") is not None:
        parts.append(
            f"trace memo {memo['traces_held']} traces, "
            f"{(memo.get('trace_bytes') or 0) / 2**20:.1f} MB in the "
            f"parent, {memo.get('trace_hits', 0)} hits, "
            f"{memo.get('trace_evictions', 0)} evictions")
    return "  memory:   " + "; ".join(parts) if parts else None


__all__ = ["PEAK_PREFIX", "peak_rss_mb", "note_peak", "section", "render"]
