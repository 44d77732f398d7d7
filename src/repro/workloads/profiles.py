"""The workload registry and the six calibrated Table 2 profiles.

Calibration strategy (paper suite)
----------------------------------

The paper characterises its workloads in three ways that we can target
directly with generator knobs:

* **Table 1** (BTB MPKI at 2K entries, no prefetch) orders the suite
  Oracle > DB2 > Apache > Zeus ~ Streaming > Nutch.  The dominant lever is
  the branch working set: the function count and the Zipf skew of callee
  popularity (flatter skew -> more live branches).
* **Figure 3** (intra-region spatial locality) requires ~90% of region
  accesses within 10 cache blocks of the entry point, which holds for all
  profiles because functions are small and conditional offsets short.
* **Figure 4** (branch working-set curves for Oracle/DB2) requires the
  unconditional working set to be far smaller than the total branch
  working set, which holds because conditional branches dominate block
  terminators.

OLTP workloads additionally get higher data-miss rates (deep B-tree and
buffer-pool traversals), which matters for the Figure 11 NoC-load
experiment.

The registry
------------

Profiles live in a pluggable registry: the six Table 2 workloads are
registered below, :mod:`repro.workloads.families` registers the
synthetic scenario-diversity families on import (see that module for the
family calibration rationale), and downstream users can
:func:`register_profile` their own.  Everything that resolves a workload
by name — trace/program builders, the RunSpec layer, the disk cache's
key material, the ``frontier`` experiment, ``python -m repro list
--workloads`` — goes through this registry, so a registered family
behaves exactly like a built-in one.
"""

from __future__ import annotations

# repro: allow-file[RPR004] -- registry + memo caches: registration happens at
# import time or in single-threaded test setup, and the build_* check-then-set
# races at worst recompute the same pure artefact before an identical write.

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from repro import heap
from repro.cfg.generator import GeneratedProgram, GeneratorParams, \
    generate_program
from repro.errors import ConfigError
# repro: allow[RPR002] -- observability spans; they only time the builders
from repro.obs import metrics as _obs_metrics, tracing as _obs_tracing
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace

#: Paper ordering of the original workload suite (Tables 1-2, all
#: figures).  Deliberately static: the figure experiments reproduce the
#: paper's tables and must not grow rows when extra families register.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "nutch", "streaming", "apache", "zeus", "oracle", "db2",
)


@dataclass(frozen=True)
class WorkloadProfile:
    """A named workload: generator parameters plus trace-time settings.

    Attributes:
        name: canonical lower-case workload name.
        description: one-line provenance/behaviour summary (the paper's
            Table 2 description for the original suite).
        gen_params: calibrated synthetic-program generator knobs.
        trace_seed: RNG seed of the reference trace.
        warmup_blocks: blocks executed before the measured window.
        l1d_misses_per_kinstr: synthetic L1-D miss rate, used by the
            NoC-load model for Figure 11.
        suite: registry grouping — ``"table2"`` for the paper suite,
            ``"synthetic"`` for the shipped scenario families,
            ``"custom"`` for user registrations.
    """

    name: str
    description: str
    gen_params: GeneratorParams
    trace_seed: int = 1
    warmup_blocks: int = 8_000
    l1d_misses_per_kinstr: float = 12.0
    suite: str = "custom"


# ---------------------------------------------------------------------------
# The trace memo: least recently used traces, bounded by estimated bytes.
# ---------------------------------------------------------------------------

#: Byte budget of the trace memo.  It holds one default-length
#: (120k-block) figure's six traces with everything their cells derive,
#: so a figure, or Table 1 followed by Figure 7, evicts nothing; a long
#: sampled or explore run stays flat once it is reached (DESIGN.md
#: Section 7).
TRACE_MEMO_BYTES = 128 * 2**20

_TRACE_HITS = _obs_metrics.counter("memo.trace_hits")
_TRACE_EVICTIONS = _obs_metrics.counter("memo.trace_evictions")
_TRACE_BYTES = _obs_metrics.gauge("memo.trace_bytes")
_TRACES_HELD = _obs_metrics.gauge("memo.traces_held")
_PROGRAMS_HELD = _obs_metrics.gauge("memo.programs_held")
_PROGRAM_BYTES = _obs_metrics.gauge("memo.program_bytes")

TraceKey = Tuple[str, int, int]


class TraceMemo:
    """Memoised traces keyed by (workload, blocks, seed), in LRU order.

    A read-only mapping to callers; :func:`build_trace` alone fills it
    through :meth:`fetch` and :meth:`admit`.  Each fetched or admitted
    trace becomes the one in use.  The trace in use before it is
    measured again (its cells have added to ``derived`` since), and
    the least recently used traces are then evicted until the estimated
    bytes (:meth:`~repro.workloads.trace.Trace.estimated_bytes`) fit the
    budget.  The trace in use is never evicted, so the memo holds at
    most the budget plus what the current cell adds to its trace.  An
    evicted trace is rebuilt bit for bit on its next use.  A lock makes
    each update atomic for the thread backend, whose workers share the
    memo; there the trace in use is the one handed out last, and a
    trace another thread still simulates on may be evicted (it lives on
    with that thread).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._traces: "OrderedDict[TraceKey, Trace]" = OrderedDict()
        self._bytes: Dict[TraceKey, int] = {}
        self._current: Optional[TraceKey] = None
        #: Estimated bytes of the held traces, as last measured.
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, key: object) -> bool:
        return key in self._traces

    def __iter__(self) -> Iterator[TraceKey]:
        return iter(list(self._traces))

    def __getitem__(self, key: TraceKey) -> Trace:
        return self._traces[key]

    def values(self) -> List[Trace]:
        return list(self._traces.values())

    def __delitem__(self, key: TraceKey) -> None:
        with self._lock:
            del self._traces[key]
            self.total_bytes -= self._bytes.pop(key)
            if key == self._current:
                self._current = None
            self._publish()

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._bytes.clear()
            self._current = None
            self.total_bytes = 0
            self._publish()

    def fetch(self, key: TraceKey) -> Optional[Trace]:
        """The memoised trace for *key*, now in use, or None."""
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                _TRACE_HITS.inc()
                self._traces.move_to_end(key)
                self._use(key)
            return trace

    def admit(self, key: TraceKey, trace: Trace) -> None:
        """Memoise the just-built *trace* under *key*, now in use."""
        with self._lock:
            # A key already held was built by another thread meanwhile:
            # the equal trace replaces it.
            self.total_bytes -= self._bytes.get(key, 0)
            self._traces[key] = trace
            self._traces.move_to_end(key)
            self._bytes[key] = 0
            self._use(key)

    def refresh(self) -> None:
        """Measure the trace in use again (its cells may have grown it)."""
        with self._lock:
            if self._current is not None:
                self._measure(self._current)
            self._publish()

    def _use(self, key: TraceKey) -> None:
        previous, self._current = self._current, key
        if previous is not None and previous in self._traces:
            self._measure(previous)
        self._measure(key)
        while self.total_bytes > TRACE_MEMO_BYTES and len(self._traces) > 1:
            oldest = next(iter(self._traces))
            del self._traces[oldest]
            self.total_bytes -= self._bytes.pop(oldest)
            _TRACE_EVICTIONS.inc()
        self._publish()

    def _measure(self, key: TraceKey) -> None:
        size = self._traces[key].estimated_bytes()
        self.total_bytes += size - self._bytes[key]
        self._bytes[key] = size

    def _publish(self) -> None:
        _TRACE_BYTES.set(self.total_bytes)
        _TRACES_HELD.set(len(self._traces))


# ---------------------------------------------------------------------------
# The registry.  Memoised programs/traces are keyed by workload name, so
# re-registering a name with changed parameters must evict its cached
# artefacts.
# ---------------------------------------------------------------------------

_PROFILES: Dict[str, WorkloadProfile] = {}
_PROGRAM_CACHE: Dict[str, GeneratedProgram] = {}
_TRACE_CACHE = TraceMemo()


def register_profile(profile: WorkloadProfile,
                     replace: bool = False) -> WorkloadProfile:
    """Add *profile* to the workload registry (keyed by lower-case name).

    Registration order is preserved (and is the row order of registry
    sweeps such as the ``frontier`` experiment).  Re-registering an
    existing name requires ``replace=True``.  A *changed* profile
    evicts the name's memoised program, traces and simulation results,
    so the next build reflects the new parameters; an *equal* one is a
    no-op that keeps them warm — which is what lets a forked pool
    worker mirror the parent's registry without rebuilding what it
    inherited.  Returns the registered profile for chaining.
    """
    key = profile.name.lower()
    if key != profile.name:
        profile = _dc_replace(profile, name=key)
    if key in _PROFILES and not replace:
        raise ConfigError(
            f"workload {key!r} is already registered; pass replace=True "
            "to override it"
        )
    if _PROFILES.get(key) == profile:
        return _PROFILES[key]
    _PROFILES[key] = profile
    _PROGRAM_CACHE.pop(key, None)
    for cache_key in [k for k in _TRACE_CACHE if k[0] == key]:
        del _TRACE_CACHE[cache_key]
    # The sweep layer's result memo is keyed by canonical RunSpec, whose
    # workload component is the *name* — so a re-registration must evict
    # the name's results there too, or an in-process caller keeps
    # reading simulations of the old parameters.  Lazy sys.modules
    # lookup: sweep imports this module, not vice versa.
    sweep = sys.modules.get("repro.core.sweep")
    if sweep is not None:
        for spec in [s for s in sweep._RESULT_CACHE if s.workload == key]:
            del sweep._RESULT_CACHE[spec]
    return profile


def registered_workloads() -> Tuple[str, ...]:
    """Every registered workload name, in registration order."""
    return tuple(_PROFILES)


def iter_profiles() -> Tuple[WorkloadProfile, ...]:
    """Every registered profile, in registration order."""
    return tuple(_PROFILES.values())


def get_profile(name: str) -> WorkloadProfile:
    """Look up a workload profile by (case-insensitive) name."""
    key = name.lower()
    if key not in _PROFILES:
        raise ConfigError(
            f"unknown workload {name!r}; choose from "
            f"{registered_workloads()}"
        )
    return _PROFILES[key]


# ---------------------------------------------------------------------------
# Memoised builders: program generation and trace execution are pure
# functions of (profile, length, seed), so experiments share one copy
# (of a trace, while the byte-bounded TraceMemo keeps it).
# A memo miss is timed as a ``build_program`` / ``build_trace`` span
# (run-manifest phases of the same names); the generators are called
# through this module's attributes, inside those spans.  A program is
# built under a collector pause (:func:`repro.heap.building`), so it is
# frozen once built and never rescanned; traces are not, since sampled
# runs interleave their builds with cells.
# ---------------------------------------------------------------------------

def build_program(name: str) -> GeneratedProgram:
    """Generate (or fetch the cached) program for a workload."""
    key = name.lower()
    if key not in _PROGRAM_CACHE:
        gen_params = get_profile(key).gen_params
        with _obs_tracing.span("build_program", workload=key), \
                heap.building():
            _PROGRAM_CACHE[key] = generate_program(gen_params)
    return _PROGRAM_CACHE[key]


def build_trace(name: str, n_blocks: int, seed: int = 0) -> Trace:
    """Generate (or fetch the cached) reference trace for a workload.

    ``seed=0`` selects the profile's reference seed; other values derive
    independent streams for variance studies and sampled windows.
    """
    profile = get_profile(name)
    actual_seed = profile.trace_seed if seed == 0 else seed
    key = (name.lower(), n_blocks, actual_seed)
    trace = _TRACE_CACHE.fetch(key)
    if trace is None:
        generated = build_program(name)
        with _obs_tracing.span("build_trace", workload=key[0],
                               blocks=n_blocks):
            trace = generate_trace(
                generated, n_blocks, seed=actual_seed,
                warmup_blocks=profile.warmup_blocks,
            )
        _TRACE_CACHE.admit(key, trace)
    return trace


# ---------------------------------------------------------------------------
# The planned build stage: a table's missing programs on every usable CPU
# (DESIGN.md Section 10.6).
# ---------------------------------------------------------------------------

def plan_builds(names: Sequence[str], shares: int) -> List[List[str]]:
    """Split registered workloads *names* into *shares* build lists.

    Longest first on the cost proxy ``n_functions`` (generation time is
    roughly linear in it), each program goes to the share with the
    least work so far.  Ties keep the given order and the lower share.
    """
    costs = {name: get_profile(name).gen_params.n_functions
             for name in names}
    loads = [0] * shares
    plan: List[List[str]] = [[] for _ in range(shares)]
    for name in sorted(names, key=lambda name: -costs[name]):
        share = loads.index(min(loads))
        loads[share] += costs[name]
        plan[share].append(name)
    return plan


def _build_shipped(names: Sequence[str]):
    """Builder entry point: build *names* in a pool worker and ship the
    programs home (as their columns) with the spans and metric delta
    they produced."""
    # repro: allow[RPR002] -- scheduling only: it moves built programs
    from repro.core.exec.backends import worker_shipment
    before = _obs_metrics.snapshot()
    programs = {name: build_program(name) for name in names}
    return (programs, *worker_shipment(before))


def build_programs(names: Iterable[str]) -> None:
    """Warm the program memo for *names* on every usable CPU.

    The stage runs only when the :class:`~repro.core.exec.
    ExecutionPolicy` in scope would run the missing programs on a
    process pool of k >= 2 workers (the rule ``run_specs`` uses), at
    least two of them are missing, this process is not itself a pool
    worker and the pool can be created.  It then forks k builders, one
    per share (:func:`plan_builds`), and stores every program they ship
    home; their spans and metrics join this process's under a
    ``build_programs`` span.  This process generates nothing: the
    parent every later pool forks from never holds generation's heap,
    only the shipped columns.  The whole stage is one collector pause
    (:func:`repro.heap.building`): the builders fork into it, so they
    never collect, and it ends with one collection.

    It only warms the memo and never raises for a build: whatever it
    leaves missing — every program when it does not run, a failed
    builder's share — the caller's :func:`build_program` builds here,
    bit for bit the same, raising what it always raised.
    """
    # repro: allow[RPR002] -- scheduling only: it picks where, not what
    from repro.core.exec import ProcessBackend, current_policy
    missing = [key for key in dict.fromkeys(name.lower() for name in names)
               if key in _PROFILES and key not in _PROGRAM_CACHE]
    if len(missing) < 2 or _obs_tracing.in_worker():
        return
    backend = current_policy().make_backend(len(missing))
    if not isinstance(backend, ProcessBackend):
        return
    plan = plan_builds(missing, backend.max_workers)
    with _obs_tracing.span("build_programs", programs=len(missing),
                           workers=len(plan)) as record, heap.building():
        try:
            pool = backend._make_pool(len(plan))
        except Exception:
            return
        try:
            futures = [pool.submit(_build_shipped, share) for share in plan]
            for future in futures:
                try:
                    programs, spans, shipped = future.result()
                except Exception:
                    # A builder that crashed or raised ships nothing
                    # (a crash breaks the pool, so neither does the
                    # other): the caller builds what is missing.
                    continue
                _obs_tracing.adopt(spans, record and record["span_id"])
                _obs_metrics.absorb(shipped)
                for name, generated in programs.items():
                    _PROGRAM_CACHE.setdefault(name, generated)
        except Exception:
            # A pool that breaks as shares are submitted ships nothing.
            pass
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def refresh_trace_memo() -> None:
    """Measure the trace in use again, so the ``memo.trace_bytes`` gauge
    includes what the last cell added to it (before a run manifest)."""
    _TRACE_CACHE.refresh()


def refresh_program_memo() -> None:
    """Set the ``memo.programs_held`` and ``memo.program_bytes`` gauges
    from the program memo (:meth:`Program.estimated_bytes`, which
    measures each derived entry once, so this costs microseconds).

    Called where a process reports its peak memory: the CLI before its
    manifest, a pool worker or builder with each shipment.
    """
    programs = list(_PROGRAM_CACHE.values())
    _PROGRAMS_HELD.set(len(programs))
    _PROGRAM_BYTES.set(sum(generated.program.estimated_bytes()
                           for generated in programs))


def clear_caches() -> None:
    """Drop memoised programs and traces (used by tests)."""
    _PROGRAM_CACHE.clear()
    _TRACE_CACHE.clear()


# ---------------------------------------------------------------------------
# The paper suite (Table 2), registered in paper order.
# ---------------------------------------------------------------------------

register_profile(WorkloadProfile(
    name="nutch",
    description="Apache Nutch v1.2 web search (230 clients)",
    gen_params=GeneratorParams(
        n_functions=1600,
        n_layers=6,
        n_roots=12,
        median_blocks=8.0,
        sigma_blocks=0.6,
        zipf_callee=0.72,
        zipf_root=0.9,
        call_fraction=0.14,
        trap_fraction=0.012,
        cluster_fraction=0.35,
        indirect_fraction=0.08,
        indirect_fanout=4,
        seed=101,
    ),
    l1d_misses_per_kinstr=6.0,
    suite="table2",
))

register_profile(WorkloadProfile(
    name="streaming",
    description="Darwin Streaming Server 6.0.3 (7500 clients)",
    gen_params=GeneratorParams(
        n_functions=2300,
        n_layers=7,
        n_roots=18,
        median_blocks=9.0,
        sigma_blocks=0.65,
        zipf_callee=0.7,
        zipf_root=0.95,
        call_fraction=0.14,
        trap_fraction=0.016,
        cluster_fraction=0.35,
        indirect_fraction=0.10,
        indirect_fanout=4,
        seed=102,
    ),
    l1d_misses_per_kinstr=10.0,
    suite="table2",
))

register_profile(WorkloadProfile(
    name="apache",
    description="Apache HTTP Server v2.0 (SPECweb99, 16K connections)",
    gen_params=GeneratorParams(
        n_functions=3200,
        n_layers=8,
        n_roots=32,
        median_blocks=9.0,
        sigma_blocks=0.65,
        zipf_callee=0.65,
        zipf_root=1.0,
        call_fraction=0.135,
        trap_fraction=0.016,
        cluster_fraction=0.35,
        indirect_fraction=0.10,
        indirect_fanout=4,
        seed=103,
    ),
    l1d_misses_per_kinstr=8.0,
    suite="table2",
))

register_profile(WorkloadProfile(
    name="zeus",
    description="Zeus Web Server (SPECweb99, 16K connections)",
    gen_params=GeneratorParams(
        n_functions=2400,
        n_layers=7,
        n_roots=20,
        median_blocks=8.5,
        sigma_blocks=0.65,
        zipf_callee=0.7,
        zipf_root=1.1,
        call_fraction=0.13,
        trap_fraction=0.014,
        cluster_fraction=0.35,
        indirect_fraction=0.10,
        indirect_fanout=4,
        seed=104,
    ),
    l1d_misses_per_kinstr=8.0,
    suite="table2",
))

register_profile(WorkloadProfile(
    name="oracle",
    description="Oracle 10g Enterprise DB, TPC-C 100 warehouses",
    gen_params=GeneratorParams(
        n_functions=6000,
        n_layers=10,
        n_roots=48,
        median_blocks=10.0,
        sigma_blocks=0.7,
        zipf_callee=0.6,
        zipf_root=1.6,
        call_fraction=0.17,
        trap_fraction=0.018,
        cluster_fraction=0.35,
        indirect_fraction=0.12,
        indirect_fanout=5,
        seed=105,
    ),
    l1d_misses_per_kinstr=16.0,
    suite="table2",
))

register_profile(WorkloadProfile(
    name="db2",
    description="IBM DB2 v8 ESE, TPC-C 100 warehouses",
    gen_params=GeneratorParams(
        n_functions=4300,
        n_layers=9,
        n_roots=44,
        median_blocks=10.0,
        sigma_blocks=0.7,
        zipf_callee=0.6,
        zipf_root=1.05,
        call_fraction=0.14,
        trap_fraction=0.018,
        cluster_fraction=0.35,
        indirect_fraction=0.12,
        indirect_fanout=5,
        seed=106,
    ),
    l1d_misses_per_kinstr=15.0,
    suite="table2",
))


# Register the synthetic scenario families after the paper suite so any
# name-resolution path (builders, disk-cache key material, the CLI) sees
# a fully-populated registry regardless of which module imports first.
import repro.workloads.families  # noqa: E402,F401
