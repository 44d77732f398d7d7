"""Unified telemetry for the reproduction (DESIGN.md Section 13).

Observability is a *read-only* layer over the engine and its execution
stack: a process-wide metrics registry (:mod:`repro.obs.metrics`),
span-based tracing threaded through the sweep scheduler and every
execution backend (:mod:`repro.obs.tracing`), exact per-phase timing
of the engine hot path (:mod:`repro.obs.profile`), and the export
sinks — JSONL event stream, Prometheus-style text
exposition, and the per-invocation run manifest
(:mod:`repro.obs.export`).

Nothing in this package may ever change simulation output: the subtree
is fingerprint-excluded (``diskcache._FINGERPRINT_EXCLUDE``), tracing
and phase timing are off by default, and every instrument is fed from
engine events — never the other way around.  ``repro.obs.export`` is
deliberately *not* imported here: it reaches back into
:mod:`repro.core.diskcache` (lazily) for fingerprint/version stamps,
and the package init must stay import-cycle-free because fingerprinted
modules import :mod:`repro.obs.metrics` at module load.
"""

from __future__ import annotations

from repro.obs import metrics, profile, tracing

__all__ = ["metrics", "tracing", "profile"]
