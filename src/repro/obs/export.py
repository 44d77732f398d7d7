"""Telemetry sinks: JSONL stream, Prometheus text, run manifests.

Three ways the collected telemetry leaves the process:

* :class:`TelemetryWriter` — an append-only JSONL event stream (the
  ``--telemetry`` flag / ``REPRO_TELEMETRY`` env).  Progress events,
  supervision events and the final run manifest all land in one file,
  one JSON object per line, each stamped with ``kind``.
* :func:`render_prometheus` — a Prometheus-style text exposition of a
  metrics snapshot, for scraping or eyeballing.
* :class:`RunReport` — the per-invocation **run manifest**: cell
  accounting reconciled with the stderr line (both render the same
  snapshot delta, so they cannot drift), a wall-clock breakdown
  derived from spans (scheduling vs simulate vs cache-probe vs
  retry-backoff), cache hit ratio, per-scheme/per-workload cell
  timings, backend and worker count, engine version + fingerprint,
  and the supervisor's failure report.  Written next to the run
  journal as ``<journal>.manifest.json`` and appended to the JSONL
  stream, which is what ``python -m repro stats`` / ``trace`` read.

This module is deliberately *not* imported from ``repro.obs.__init__``
and imports :mod:`repro.core.diskcache` lazily: fingerprinted modules
import ``repro.obs.metrics`` at module load, and the export layer
reaching back for fingerprint/version stamps must not create a cycle.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import memory as _memory, metrics, tracing


# ---------------------------------------------------------------------------
# JSONL event stream


class TelemetryWriter:
    """Append-only JSONL sink: one JSON object per line, kind-stamped."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)

    def emit(self, kind: str, **payload: Any) -> None:
        record = {"kind": kind, "ts": time.time()}
        record.update(payload)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


def _spec_label(spec: Any) -> Optional[str]:
    if spec is None:
        return None
    workload = getattr(spec, "workload", None)
    scheme = getattr(spec, "scheme", None)
    if workload is None or scheme is None:
        return str(spec)
    return f"{workload}/{scheme}"


def progress_sink(writer: TelemetryWriter, wrapped=None):
    """A progress callback streaming every event to *writer* as JSONL.

    Composes: *wrapped* (e.g. the stderr renderer) still sees every
    event afterwards, so ``--telemetry`` and ``--progress`` stack.
    """

    def sink(event) -> None:
        writer.emit(
            "progress",
            event=event.kind,
            done=event.done,
            total=event.total,
            simulated=event.simulated,
            cached=event.cached,
            failed=event.failed,
            elapsed=event.elapsed,
            eta_seconds=event.eta_seconds,
            spec=_spec_label(event.spec),
            source=event.source,
            detail=event.detail,
        )
        if wrapped is not None:
            wrapped(event)

    return sink


# ---------------------------------------------------------------------------
# Prometheus-style text exposition


def _metric_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def render_prometheus(snapshot: Optional[Dict[str, Dict]] = None) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters and numeric gauges become plain samples; a non-numeric
    gauge (e.g. ``sweep.last_backend = "process"``) is encoded as a
    ``{value="..."} 1`` labelled sample; histograms expose ``_count``
    and ``_sum`` (plus ``_min``/``_max`` gauges when observed).
    """
    if snapshot is None:
        snapshot = metrics.snapshot()
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(f"{metric} {value}")
        else:
            lines.append(f'{metric}{{value="{value}"}} 1')
    for name, value in snapshot.get("histograms", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        lines.append(f"{metric}_count {value['count']}")
        lines.append(f"{metric}_sum {value['sum']}")
        if value.get("min") is not None:
            lines.append(f"{metric}_min {value['min']}")
        if value.get("max") is not None:
            lines.append(f"{metric}_max {value['max']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run manifest


def cache_section(counters: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The manifest's cache section: whether the policy in scope
    enables the disk cache, counts and hit ratio.

    *counters* is a ``{"cache.hits": n, ...}`` mapping — a snapshot or
    snapshot-delta ``counters`` table; default reads the live registry
    (the shape ``cache stats --json`` emits).
    """
    # Deferred import: the execution layer imports repro.obs at module
    # load, so the export layer must reach back lazily (no cycle).
    from repro.core.exec import current_policy
    if counters is None:
        counters = metrics.snapshot()["counters"]
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    probes = hits + misses
    return {
        "enabled": current_policy().resolved().disk_cache,
        "hits": hits,
        "misses": misses,
        "stores": counters.get("cache.stores", 0),
        "corrupt": counters.get("cache.corrupt", 0),
        "hit_ratio": (hits / probes) if probes else None,
    }


def _phase_total(spans: Sequence[Dict[str, Any]], name: str) -> float:
    return sum(float(record.get("duration", 0.0))
               for record in spans if record.get("name") == name)


def _cell_timings(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict]:
    """Per-scheme and per-workload simulate-span timing aggregates."""
    by_scheme: Dict[str, Dict[str, float]] = {}
    by_workload: Dict[str, Dict[str, float]] = {}
    for record in spans:
        if record.get("name") != "simulate":
            continue
        attrs = record.get("attrs") or {}
        duration = float(record.get("duration", 0.0))
        for table, key in ((by_scheme, attrs.get("scheme")),
                           (by_workload, attrs.get("workload"))):
            if key is None:
                continue
            bucket = table.setdefault(
                str(key), {"cells": 0, "seconds": 0.0})
            bucket["cells"] += 1
            bucket["seconds"] += duration
    return {
        "by_scheme": {k: by_scheme[k] for k in sorted(by_scheme)},
        "by_workload": {k: by_workload[k] for k in sorted(by_workload)},
    }


def _failures_section(report) -> Optional[Dict[str, Any]]:
    if report is None:
        return None
    return {
        "quarantined": report.quarantined,
        "retries": report.retries,
        "degraded": [list(step) for step in report.degraded],
        "cells": [
            {
                "spec": _spec_label(cell.spec),
                "carried": cell.carried,
                "error": cell.error,
                "attempts": [dict(attempt) for attempt in cell.attempts],
            }
            for cell in report.cells
        ],
        "summary": report.summary(),
    }


@dataclass
class RunReport:
    """The per-invocation run manifest (DESIGN.md Section 13)."""

    run_id: str
    label: str
    command: str
    created: float
    elapsed: float
    backend: Optional[str]
    workers: Optional[int]
    engine_version: int
    engine_fingerprint: str
    counts: Dict[str, int]
    cache: Dict[str, Any]
    phases: Dict[str, float]
    cells: Dict[str, Dict]
    failures: Optional[Dict[str, Any]]
    metrics: Dict[str, Dict]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    journal: Optional[str] = None
    #: Engine-core selection accounting (``--engine``): requested core,
    #: columnar vs fallback cell counts.  None for interpreter-only runs
    #: (and for manifests written before the field existed).
    engine: Optional[Dict[str, Any]] = None
    #: Peak resident memory per process and the trace memo
    #: (:func:`repro.obs.memory.section`).
    memory: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "manifest",
            "run_id": self.run_id,
            "label": self.label,
            "command": self.command,
            "created": self.created,
            "elapsed": self.elapsed,
            "backend": self.backend,
            "workers": self.workers,
            "engine_version": self.engine_version,
            "engine_fingerprint": self.engine_fingerprint,
            "counts": self.counts,
            "cache": self.cache,
            "phases": self.phases,
            "cells": self.cells,
            "failures": self.failures,
            "metrics": self.metrics,
            "spans": self.spans,
            "journal": self.journal,
            "engine": self.engine,
            "memory": self.memory,
        }

    def render(self) -> str:
        """Human-readable manifest summary (``python -m repro stats``)."""
        counts = self.counts
        lines = [
            f"run {self.run_id} ({self.command})",
            f"  label:    {self.label}",
            f"  backend:  {self.backend or 'auto'}"
            + (f" x{self.workers}" if self.workers else ""),
            f"  engine:   v{self.engine_version} "
            f"fingerprint {self.engine_fingerprint[:12]}",
            f"  elapsed:  {self.elapsed:.2f}s",
            f"  cells:    {counts.get('cells', 0)} total = "
            f"{counts.get('simulated', 0)} simulated + "
            f"{counts.get('cached', 0)} cached + "
            f"{counts.get('quarantined', 0)} quarantined",
        ]
        if self.engine:
            fallbacks = self.engine.get("fallback_cells", 0)
            suffix = f", {fallbacks} fallback" if fallbacks else ""
            lines.append(
                f"  core:     {self.engine.get('requested', '?')} "
                f"({self.engine.get('columnar_cells', 0)} columnar cells"
                f"{suffix})")
        ratio = self.cache.get("hit_ratio")
        ratio_text = f"{ratio:.1%}" if ratio is not None else "n/a"
        lines.append(
            f"  cache:    {self.cache.get('hits', 0)} hits / "
            f"{self.cache.get('misses', 0)} misses "
            f"(ratio {ratio_text}, {self.cache.get('stores', 0)} stores, "
            f"{self.cache.get('corrupt', 0)} corrupt)")
        if self.phases:
            breakdown = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(self.phases.items()))
            lines.append(f"  phases:   {breakdown}")
        gc_line = _gc_line(self.metrics)
        if gc_line:
            lines.append(gc_line)
        memory_line = _memory.render(self.memory)
        if memory_line:
            lines.append(memory_line)
        for title, table in (("scheme", self.cells.get("by_scheme", {})),
                             ("workload", self.cells.get("by_workload", {}))):
            for key, bucket in table.items():
                lines.append(
                    f"  {title} {key}: {bucket['cells']} cells, "
                    f"{bucket['seconds']:.2f}s simulate")
        if self.failures:
            lines.append(f"  failures: {self.failures['summary']}")
            for cell in self.failures["cells"]:
                carried = " (carried)" if cell["carried"] else ""
                lines.append(f"    {cell['spec']}{carried}: {cell['error']}")
        if self.journal:
            lines.append(f"  journal:  {self.journal}")
        return "\n".join(lines)


def _gc_line(delta: Dict[str, Dict]) -> Optional[str]:
    """The ``gc:`` line of a manifest: collections per generation and
    pause seconds, summed over the parent and its pool workers, and the
    parent's frozen-object count (:mod:`repro.obs.gcstats`).  None when
    the run recorded no collection."""
    counters = delta.get("counters", {})
    collections = [counters.get(f"gc.collections.gen{gen}", 0)
                   for gen in range(3)]
    if not any(collections):
        return None
    line = (f"  gc:       gen0 {collections[0]}, gen1 {collections[1]}, "
            f"gen2 {collections[2]} collections, "
            f"{counters.get('gc.pause_s', 0.0):.2f}s paused")
    frozen = delta.get("gauges", {}).get("gc.frozen")
    if frozen is not None:
        line += f", {frozen} objects frozen"
    return line


def build_report(run_id: str, label: str, command: str,
                 delta: Dict[str, Dict],
                 spans: Sequence[Dict[str, Any]],
                 elapsed: float,
                 failures=None,
                 journal: Optional[str] = None) -> RunReport:
    """Assemble a :class:`RunReport` from one invocation's delta + spans.

    *delta* is :func:`repro.obs.metrics.delta` over the invocation's
    before/after snapshots — the same delta the stderr accounting line
    renders, which is the no-drift guarantee.
    """
    from repro.core import diskcache
    counters = delta.get("counters", {})
    gauges = delta.get("gauges", {})
    spans = list(spans)
    counts = {
        "cells": counters.get("sweep.cells", 0),
        "simulated": counters.get("sweep.simulations", 0),
        "cached": counters.get("sweep.cached_cells", 0),
        "quarantined": counters.get("sweep.quarantines", 0),
        "retries": counters.get("supervisor.retries", 0),
        "degrades": counters.get("supervisor.degrades", 0),
        "journal_writes": counters.get("journal.writes", 0),
    }
    phases = {
        "schedule": _phase_total(spans, "schedule"),
        "cache_probe": _phase_total(spans, "cache_probe"),
        "execute": _phase_total(spans, "execute"),
        "simulate": _phase_total(spans, "simulate"),
        "build_program": _phase_total(spans, "build_program"),
        "build_trace": _phase_total(spans, "build_trace"),
        "build_image": _phase_total(spans, "build_image"),
        "retry_backoff": float(
            counters.get("supervisor.backoff_seconds", 0.0)),
    }
    workers = gauges.get("sweep.last_workers")
    requested = gauges.get("engine.requested")
    columnar_cells = counters.get("engine.columnar_cells", 0)
    fallback_cells = counters.get("engine.fallback_cells", 0)
    engine_section: Optional[Dict[str, Any]] = None
    if requested not in (None, "interpreter") \
            or columnar_cells or fallback_cells:
        prefix = "engine.fallback."
        engine_section = {
            "requested": requested or "interpreter",
            "columnar_cells": columnar_cells,
            "fallback_cells": fallback_cells,
            "fallbacks_by_scheme": {
                name[len(prefix):]: value
                for name, value in sorted(counters.items())
                if name.startswith(prefix) and value
            },
        }
    return RunReport(
        run_id=run_id,
        label=label,
        command=command,
        created=time.time(),
        elapsed=elapsed,
        backend=gauges.get("sweep.last_backend"),
        workers=int(workers) if workers is not None else None,
        engine_version=diskcache.ENGINE_VERSION,
        engine_fingerprint=diskcache.engine_fingerprint(),
        counts=counts,
        cache=cache_section(counters),
        phases=phases,
        cells=_cell_timings(spans),
        failures=_failures_section(failures),
        metrics=delta,
        spans=spans,
        journal=journal,
        engine=engine_section,
        memory=_memory.section(delta, os.getpid()),
    )


# ---------------------------------------------------------------------------
# The stderr accounting line (satellite: rendered from the snapshot
# delta, so it can never drift from the manifest)


def render_accounting(label: str, delta: Dict[str, Dict]) -> str:
    """The CLI's cell-accounting stderr line, from a snapshot delta.

    Format is pinned by CI greps: ``[label: N simulated, M cached]``
    with ``, K quarantined`` appended only when K > 0.  ``cached``
    counts *disk-cache* hits (probe + retry-recovered): the
    ``cache.hits`` delta.
    """
    counters = delta.get("counters", {})
    simulated = counters.get("sweep.simulations", 0)
    cached = counters.get("cache.hits", 0)
    quarantined = counters.get("sweep.quarantines", 0)
    suffix = f", {quarantined} quarantined" if quarantined else ""
    return f"[{label}: {simulated} simulated, {cached} cached{suffix}]"


# ---------------------------------------------------------------------------
# Manifest location / resolution (the stats/trace CLI)


def journals_dir() -> str:
    from repro.core import diskcache
    return os.path.join(diskcache.cache_dir(), "journals")


def manifest_path(journal_path: str) -> str:
    """Manifest file path for a run-journal path (sibling file)."""
    base = journal_path
    if base.endswith(".jsonl"):
        base = base[:-len(".jsonl")]
    return base + ".manifest.json"


def write_manifest(report: RunReport, path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str) -> Dict[str, Any]:
    """Parse a manifest from its JSON file or a telemetry JSONL stream.

    A ``.manifest.json`` file holds one manifest object; a telemetry
    JSONL file is scanned for its *last* ``"kind": "manifest"`` line
    (one stream can carry several invocations).
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None  # not one JSON document: a JSONL stream
    if payload is not None:
        if isinstance(payload, dict) and payload.get("kind") == "manifest":
            return payload
        raise ValueError(f"{path} is not a run manifest")
    manifest = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == "manifest":
            manifest = record
    if manifest is None:
        raise ValueError(f"{path} contains no manifest record")
    return manifest


def list_manifests(directory: Optional[str] = None) -> List[str]:
    """Manifest files in *directory* (default: the journals dir),
    newest first by mtime."""
    directory = directory or journals_dir()
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    paths = [os.path.join(directory, name) for name in names
             if name.endswith(".manifest.json")]
    return sorted(paths, key=lambda p: os.path.getmtime(p), reverse=True)


def resolve_manifest(token: Optional[str] = None,
                     directory: Optional[str] = None) -> Dict[str, Any]:
    """Find and load a manifest for the stats/trace CLI.

    *token* may be: None (the most recent manifest in the journals
    directory), a path to a manifest / telemetry JSONL / run-journal
    file, or a run-id prefix matched against journaled manifests.  An
    exact run-id (or manifest-stem) match always wins; a prefix that
    matches *several* runs raises :class:`ReproError` listing the
    candidates instead of silently picking the newest.
    """
    if token:
        if os.path.exists(token):
            if token.endswith(".jsonl") and not os.path.exists(
                    manifest_path(token)):
                return load_manifest(token)  # telemetry stream
            if token.endswith(".manifest.json") or token.endswith(".json"):
                return load_manifest(token)
            sibling = manifest_path(token)
            if os.path.exists(sibling):
                return load_manifest(sibling)
            return load_manifest(token)
        matches = []
        match_ids = []
        for path in list_manifests(directory):
            stem = os.path.basename(path)[:-len(".manifest.json")]
            if stem == token:
                return load_manifest(path)
            if stem.startswith(token):
                matches.append(path)
                match_ids.append(stem)
                continue
            try:
                run_id = load_manifest(path).get("run_id", "")
            except (OSError, ValueError):
                continue
            if run_id == token:
                return load_manifest(path)
            if run_id.startswith(token):
                matches.append(path)
                match_ids.append(run_id)
        if not matches:
            raise FileNotFoundError(
                f"no run manifest matches {token!r} in "
                f"{directory or journals_dir()}")
        if len(matches) > 1:
            listing = ", ".join(sorted(match_ids))
            raise ReproError(
                f"run-id prefix {token!r} is ambiguous — "
                f"{len(matches)} manifests match: {listing}")
        return load_manifest(matches[0])
    manifests = list_manifests(directory)
    if not manifests:
        raise FileNotFoundError(
            f"no run manifests in {directory or journals_dir()} — run a "
            "command with --telemetry first")
    return load_manifest(manifests[0])


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Human summary of a loaded manifest dict (``repro stats``).

    Rehydrates a :class:`RunReport` so the rendering logic lives in one
    place; unknown keys (a newer manifest read by an older tool) are
    dropped rather than fatal.
    """
    fields_wanted = {f.name for f in fields(RunReport)}
    payload = {key: value for key, value in manifest.items()
               if key in fields_wanted}
    defaults: Dict[str, Any] = {
        "run_id": "?", "label": "?", "command": "?",
        "created": 0.0, "elapsed": 0.0,
        "backend": None, "workers": None,
        "engine_version": 0, "engine_fingerprint": "?",
        "counts": {}, "cache": {}, "phases": {}, "cells": {},
        "failures": None, "metrics": {}, "spans": [], "journal": None,
        "engine": None, "memory": None,
    }
    for name in fields_wanted:
        if payload.get(name) is None:
            payload[name] = defaults[name]
    return RunReport(**payload).render()


def render_trace(manifest: Dict[str, Any]) -> str:
    """Span tree of a manifest with self/total times (``repro trace``)."""
    spans = manifest.get("spans") or []
    if not spans:
        return ("no spans recorded — the run was executed without "
                "--telemetry/REPRO_TELEMETRY")
    header = (f"run {manifest.get('run_id', '?')} "
              f"({manifest.get('command', '?')}) — {len(spans)} spans")
    return "\n".join([header] + tracing.tree_lines(spans))


__all__ = [
    "TelemetryWriter",
    "progress_sink",
    "render_prometheus",
    "cache_section",
    "RunReport",
    "build_report",
    "render_accounting",
    "journals_dir",
    "manifest_path",
    "write_manifest",
    "load_manifest",
    "list_manifests",
    "resolve_manifest",
    "render_manifest",
    "render_trace",
]
