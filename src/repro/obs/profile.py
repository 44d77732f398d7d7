"""Engine phase timing.

:func:`engine_phase` is the single guarded hook in the engine hot path
(``FrontEnd.run`` and the columnar core).  When telemetry is off it is
one :func:`~repro.obs.tracing.enabled` probe and a no-op context; when
on it costs two ``perf_counter`` calls per engine run and records an
``engine.phase.<mode>`` histogram observation plus a span, in every
process that simulates (pool workers ship both home with their units).
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

from repro.obs import metrics, tracing


@contextlib.contextmanager
def engine_phase(mode: str, **attrs) -> Iterator[None]:
    """Time one engine run in phase *mode*.

    The one sanctioned observability hook inside the engine hot path:
    everything else observes from the scheduler layer.  No-op unless
    tracing/telemetry is enabled, so the disabled cost is a single
    :func:`repro.obs.tracing.enabled` probe.

    *mode* is the interpreter's run mode (``ideal`` / ``demand`` /
    ``runahead``) or the columnar core's ``columnar.ideal`` /
    ``columnar.demand``, so ``repro trace`` attributes wall-clock to
    the engine that actually executed each cell — under ``--engine
    columnar`` a mixed sweep shows both ``engine.columnar.*`` spans
    and plain ``engine.runahead`` spans for the fallback cells.
    """
    if not tracing.enabled():
        yield
        return
    begun = time.perf_counter()
    try:
        with tracing.span(f"engine.{mode}", **attrs):
            yield
    finally:
        metrics.histogram(f"engine.phase.{mode}").observe(
            time.perf_counter() - begun)


__all__ = ["engine_phase"]
