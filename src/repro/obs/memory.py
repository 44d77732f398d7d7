"""Peak memory per process and the memos' state, for run manifests.

Each process records its peak resident set (:func:`peak_rss_mb`) as one
observation of its own histogram, ``memory.peak_rss_mb.<pid>``: the
parent just before its manifest is built (the CLI's cell accounting),
a pool worker with every unit it ships home
(:func:`repro.core.exec.backends.worker_shipment`).  Histograms merge
by count, sum, min and max, so the parent keeps each process's peak as
a max, never a sum, and a run's delta names exactly the processes that
reported during the run.  The program memo's ``memo.program_bytes``
gauge (set with ``memo.programs_held`` by
:func:`repro.workloads.profiles.refresh_program_memo` just before) is
recorded the same way, as ``memory.program_bytes.<pid>``.
:func:`section` turns one delta into
the manifest's ``memory`` section, beside the trace memo's gauges and
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

#: Histogram name prefixes; the suffix is the reporting process's pid.
PEAK_PREFIX = "memory.peak_rss_mb."
PROGRAM_BYTES_PREFIX = "memory.program_bytes."


#: Where Linux reports this process's resident-set high-water mark.
_STATUS = "/proc/self/status"


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set in MB (None where unknown).

    On Linux, ``VmHWM``: the high-water mark of this address space,
    which starts again at exec.  ``ru_maxrss`` keeps the peak of the
    address space a process was exec'd from, so a run started straight
    from a larger process would report that process's peak; it is the
    fallback where there is no ``VmHWM``.
    """
    try:
        with open(_STATUS, "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def note_peak() -> None:
    """Record this process's peak resident set so far, and its program
    memo's bytes as its ``memo.program_bytes`` gauge reads (when set)."""
    pid = os.getpid()
    peak = peak_rss_mb()
    if peak is not None:
        metrics.histogram(f"{PEAK_PREFIX}{pid}").observe(peak)
    program_bytes = metrics.gauge("memo.program_bytes").value
    if program_bytes is not None:
        metrics.histogram(f"{PROGRAM_BYTES_PREFIX}{pid}").observe(
            program_bytes)


def _by_pid(histograms: Dict[str, Dict], prefix: str) -> Dict[str, Any]:
    """Each reporting process's largest observation under *prefix*."""
    return {name[len(prefix):]: stats["max"]
            for name, stats in histograms.items()
            if name.startswith(prefix) and stats.get("count")}


def section(delta: Dict[str, Dict], parent_pid: int) \
        -> Optional[Dict[str, Any]]:
    """The manifest's ``memory`` section from one run's metric *delta*:
    the parent's and the largest worker's peak, every reporting
    process's peak by pid, the trace memo and the program memo.  None
    when the run recorded neither peaks nor memo activity."""
    histograms = delta.get("histograms", {})
    peaks = _by_pid(histograms, PEAK_PREFIX)
    program_bytes = _by_pid(histograms, PROGRAM_BYTES_PREFIX)
    counters = delta.get("counters", {})
    gauges = delta.get("gauges", {})
    memo = {
        "traces_held": gauges.get("memo.traces_held"),
        "trace_bytes": gauges.get("memo.trace_bytes"),
        "trace_hits": counters.get("memo.trace_hits", 0),
        "trace_evictions": counters.get("memo.trace_evictions", 0),
    }
    parent = str(parent_pid)
    # The parent's own reading is its gauges, set just before the
    # manifest (its histogram spans the process's life).
    if gauges.get("memo.program_bytes") is not None:
        program_bytes[parent] = gauges["memo.program_bytes"]
    programs = {
        "programs_held": gauges.get("memo.programs_held"),
        "program_bytes": program_bytes.get(parent),
        "worker_program_bytes": max(
            (size for pid, size in program_bytes.items() if pid != parent),
            default=None),
        "program_bytes_by_pid": dict(sorted(program_bytes.items())),
    }
    if not peaks and memo["traces_held"] is None \
            and programs["programs_held"] is None:
        return None
    workers = [peak for pid, peak in peaks.items() if pid != parent]
    return {
        "parent_peak_mb": peaks.get(parent),
        "worker_peak_mb": max(workers, default=None),
        "peak_mb_by_pid": dict(sorted(peaks.items())),
        "trace_memo": memo,
        "program_memo": programs,
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
    programs = memory.get("program_memo") or {}
    if programs.get("programs_held") is not None:
        text = (f"program memo {programs['programs_held']} programs, "
                f"{(programs.get('program_bytes') or 0) / 2**20:.1f} MB "
                f"in the parent")
        if programs.get("worker_program_bytes") is not None:
            text += (f", workers up to "
                     f"{programs['worker_program_bytes'] / 2**20:.1f} MB")
        parts.append(text)
    return "  memory:   " + "; ".join(parts) if parts else None


__all__ = ["PEAK_PREFIX", "PROGRAM_BYTES_PREFIX", "peak_rss_mb",
           "note_peak", "section", "render"]
