"""Per-layer tracing for the traced benchmark run.

The traced run wraps the public entry point of each layer from this
file, opens one ``repro.obs`` span per call, and derives every
per-layer metric from the invocation's run manifest — the span records
and counter delta that ``repro.obs.export.build_report`` assembles, the
same report ``python -m repro stats`` renders.  Nothing inside
``src/repro`` changes.

The wrappers are installed before any pool exists, so forked process-pool
workers inherit them; their spans and counters travel home with each
unit's results (``repro.core.exec.backends._run_unit``), which is how
worker-side work such as programs rebuilt inside workers is counted.

Self time is a span's duration minus the durations of its direct child
spans, so layer times do not double count: the interpreter's time
excludes the precompute passes it triggers, and the experiments' reduce
time excludes the sweep, trace and program work inside it.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Schemes whose interpreter time per block is reported: every scheme
#: that one of the simulating workloads runs.
SCHEMES = ("baseline", "fdip", "confluence", "boomerang", "shotgun",
           "ideal")

#: Every per-layer metric, with its unit, in report order.
METRICS: Dict[str, str] = {
    "generator.programs": "count",
    "generator.busy_s": "s",
    "tracegen.traces": "count",
    "tracegen.blocks": "count",
    "tracegen.busy_s": "s",
    "precompute.busy_s": "s",
    "columnar.cells": "count",
    "columnar.fallback_cells": "count",
    "columnar.cell_ratio": "ratio",
    "columnar.busy_s": "s",
    "interpreter.cells": "count",
    "interpreter.busy_s": "s",
    **{f"interpreter.ns_per_block.{scheme}": "ns" for scheme in SCHEMES},
    "schemes.build_s": "s",
    "diskcache.loads": "count",
    "diskcache.hit_ratio": "ratio",
    "diskcache.load_s": "s",
    "diskcache.stores": "count",
    "diskcache.store_s": "s",
    "diskcache.bytes_written": "bytes",
    "exec.units": "count",
    "exec.pool_start_s": "s",
    "exec.worker_busy_s": "s",
    "exec.parent_wait_s": "s",
    "exec.utilisation": "ratio",
    "sweep.cache_probe_s": "s",
    "sweep.execute_s": "s",
    "sweep.overhead_s": "s",
    "experiments.reduce_s": "s",
    "memo.traces_held": "count",
    "memo.trace_mb": "MB",
    "obs.trace_overhead_frac": "ratio",
}


def _wrap(owner: Any, name: str, span_name: str,
          annotate: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
    """Replace ``owner.name`` with a version that records a span per call.

    *annotate* maps ``(args, kwargs, result)`` to extra span attributes;
    it runs after the span has closed, so it is not timed.
    """
    from repro.obs import tracing
    original = getattr(owner, name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracing.span(span_name) as record:
            result = original(*args, **kwargs)
        if record is not None and annotate is not None:
            record["attrs"].update(annotate(args, kwargs, result))
        return result

    setattr(owner, name, traced)


def _wrap_cached_property(cls: type, name: str, part: str) -> None:
    """Time the first (computing) access of a ``cached_property``."""
    from repro.obs import tracing
    compute = cls.__dict__[name].func

    def traced(self):
        with tracing.span("bench.precompute", part=part):
            return compute(self)

    prop = functools.cached_property(traced)
    prop.__set_name__(cls, name)
    setattr(cls, name, prop)


def _engine_attrs(args, kwargs, result) -> Dict[str, Any]:
    trace, scheme = args[0], args[1]
    return {"scheme": scheme.name, "blocks": len(trace)}


def install() -> None:
    """Wrap every traced layer entry point (once per process)."""
    from repro.core import diskcache, engine_columnar, frontend, sweep
    from repro.core.exec import backends
    from repro.workloads import profiles
    from repro.workloads.trace import Trace

    # cfg.generator and workloads.tracegen, on the memo-miss path of
    # build_program / build_trace.
    _wrap(profiles, "generate_program", "bench.generator",
          lambda args, kwargs, program: {"program": args[0].seed})
    _wrap(profiles, "generate_trace", "bench.tracegen",
          lambda args, kwargs, trace: {
              "blocks": len(trace) + kwargs.get("warmup_blocks", 0)})
    # Trace precompute passes.
    _wrap_cached_property(Trace, "hot", "hot")
    _wrap_cached_property(Trace, "cols", "cols")
    _wrap(frontend, "precompute_fold_sequences", "bench.precompute")
    _wrap(engine_columnar, "precompute_fold_sequences", "bench.precompute")
    # The two engine cores behind engine_select.simulate.
    _wrap(engine_columnar, "simulate_columnar", "bench.columnar",
          _engine_attrs)
    _wrap(frontend, "simulate", "bench.interpreter", _engine_attrs)
    # prefetch.factory, as the sweep layer calls it.
    _wrap(sweep, "build_scheme", "bench.schemes")
    # core.diskcache reads, writes and write-verify.
    _wrap(diskcache, "load", "bench.cache_load",
          lambda args, kwargs, result: {"hit": result is not None})
    _wrap(diskcache, "store", "bench.cache_store",
          lambda args, kwargs, result: {
              "bytes": _file_size(diskcache.entry_path(args[0]))})
    _wrap(diskcache, "verify_entry", "bench.cache_store")
    # core.exec: pool construction and the parent's waits on results.
    _wrap(backends.ProcessBackend, "_make_pool", "bench.exec.pool")
    _wrap(backends, "wait", "bench.exec.wait")
    # core.sweep's collection entry point.
    _wrap(sweep, "run_specs", "bench.run_specs")


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def deep_nbytes(value: Any, seen: set) -> int:
    """Approximate bytes held by *value*: numpy buffers plus Python objects."""
    import numpy as np
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return value.nbytes
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        return size + sum(deep_nbytes(item, seen) for item in value.values())
    if isinstance(value, (list, tuple)):
        return size + sum(deep_nbytes(item, seen) for item in value)
    return size


def memo_footprint() -> Dict[str, float]:
    """Traces held by the workload memo and their bytes with derived data."""
    from repro.workloads import profiles
    seen: set = set()
    total = 0
    for trace in profiles._TRACE_CACHE.values():
        # The program is shared by every trace of a workload and is not
        # trace memory; everything else on the trace (columns, hot
        # lists, the derived memo) is.
        total += sum(deep_nbytes(value, seen)
                     for key, value in vars(trace).items()
                     if key != "generated")
    return {"memo.traces_held": len(profiles._TRACE_CACHE),
            "memo.trace_mb": total / 2**20}


def derive(manifest: Dict[str, Any], parent_pid: int) -> Dict[str, float]:
    """Per-layer metrics from one traced invocation's run manifest.

    Covers every metric of :data:`METRICS` except ``memo.*`` (read from
    the parent's memo) and ``obs.trace_overhead_frac`` (a comparison of
    two invocations), which the caller adds; ``generator.programs_needed``
    (distinct programs, whichever process built them) is extra, for the
    self-test.
    """
    spans: List[Dict[str, Any]] = manifest["spans"]
    counters = manifest["metrics"].get("counters", {})
    phases = manifest["phases"]
    children: Dict[Optional[str], float] = defaultdict(float)
    for record in spans:
        children[record.get("parent_id")] += record["duration"]
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        by_name[record["name"]].append(record)

    def self_time(name: str, keep=lambda record: True) -> float:
        return sum(record["duration"] - children[record["span_id"]]
                   for record in by_name[name] if keep(record))

    def attr_sum(name: str, attr: str, keep=lambda record: True) -> float:
        return sum(record["attrs"].get(attr, 0)
                   for record in by_name[name] if keep(record))

    out: Dict[str, float] = {
        "generator.programs": len(by_name["bench.generator"]),
        "generator.programs_needed": len({
            record["attrs"].get("program")
            for record in by_name["bench.generator"]}),
        "generator.busy_s": self_time("bench.generator"),
        "tracegen.traces": len(by_name["bench.tracegen"]),
        "tracegen.blocks": attr_sum("bench.tracegen", "blocks"),
        "tracegen.busy_s": self_time("bench.tracegen"),
        "precompute.busy_s": self_time("bench.precompute"),
    }

    columnar = counters.get("engine.columnar_cells", 0)
    interpreted = len(by_name["bench.interpreter"])
    out.update({
        "columnar.cells": columnar,
        "columnar.fallback_cells": counters.get("engine.fallback_cells", 0),
        "columnar.cell_ratio": columnar / (columnar + interpreted)
        if columnar + interpreted else 0.0,
        "columnar.busy_s": self_time("bench.columnar"),
        "interpreter.cells": interpreted,
        "interpreter.busy_s": self_time("bench.interpreter"),
    })
    for scheme in SCHEMES:
        def keep(record, scheme=scheme):
            return record["attrs"].get("scheme") == scheme
        blocks = attr_sum("bench.interpreter", "blocks", keep)
        out[f"interpreter.ns_per_block.{scheme}"] = \
            1e9 * self_time("bench.interpreter", keep) / blocks \
            if blocks else 0.0

    loads = by_name["bench.cache_load"]
    hits = sum(1 for record in loads if record["attrs"].get("hit"))
    out.update({
        "schemes.build_s": self_time("bench.schemes"),
        "diskcache.loads": len(loads),
        "diskcache.hit_ratio": hits / len(loads) if loads else 0.0,
        "diskcache.load_s": self_time("bench.cache_load"),
        "diskcache.stores": counters.get("cache.stores", 0),
        "diskcache.store_s": self_time("bench.cache_store"),
        "diskcache.bytes_written": attr_sum("bench.cache_store", "bytes"),
    })

    # Units that ran in pool workers: the sweep's own "unit" spans,
    # recorded in another process and shipped home.
    remote_units = [record for record in by_name["unit"]
                    if record["pid"] != parent_pid]
    worker_busy = sum(record["duration"] for record in remote_units)
    pools = by_name["bench.exec.pool"]
    pool_start = 0.0
    if pools and remote_units:
        pool_start = min(record["start"] for record in remote_units) \
            - min(record["start"] for record in pools)
    execute = phases.get("execute", 0.0)
    workers = manifest.get("workers") or 1
    out.update({
        "exec.units": len(remote_units),
        "exec.pool_start_s": pool_start,
        "exec.worker_busy_s": worker_busy,
        "exec.parent_wait_s": sum(record["duration"]
                                  for record in by_name["bench.exec.wait"]),
        "exec.utilisation": worker_busy / (workers * execute)
        if remote_units and execute else 0.0,
    })

    # Cell time on the critical path: the busiest process's simulate
    # spans (all of them when the sweep ran serially).
    per_process: Dict[int, float] = defaultdict(float)
    for record in by_name["simulate"]:
        per_process[record["pid"]] += record["duration"]
    out.update({
        "sweep.cache_probe_s": phases.get("cache_probe", 0.0),
        "sweep.execute_s": execute,
        "sweep.overhead_s": execute - max(per_process.values(), default=0.0)
        if execute else 0.0,
        "experiments.reduce_s": self_time("bench.experiment"),
    })
    return out
