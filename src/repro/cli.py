"""Unified command-line interface: ``python -m repro``.

Subcommands:

``list``
    Every registered experiment id with a one-line description;
    ``--workloads`` lists the workload-family registry instead.
``run``
    Regenerate one or more experiments (or ``all``), rendered as the
    paper's tables, as ASCII bar charts (``--chart``) or as JSON
    (``--json``); ``--out`` writes to a file (one experiment) or a
    directory (several).  ``--sampled`` / ``--windows N`` switch a
    simulation-grid experiment to SMARTS-style sampled measurement
    (per-cell mean ± 95% CI over N independently-seeded windows).
``sweep``
    A raw (workload × scheme) grid through the cached/parallel sweep
    path, emitted as machine-readable JSONL — one line per cell with
    the headline metrics (plus speedup when a ``baseline`` column is
    part of the sweep).  With ``--sampled``/``--windows`` every metric
    becomes a mean with a ``*_ci95`` half-width.
``report``
    Run a set of experiments (default: all) and write rendered + JSON
    results into an output directory.
``explore``
    Budget-aware design-space exploration (:mod:`repro.explore`): pick
    a ``--space`` (a registered name or a JSON file) and a
    ``--strategy``, bound the search with ``--budget N`` simulation
    cells, and get the Pareto frontier over ``--objectives`` — rendered
    as a table, or as JSONL (``--json``) with one line per evaluated
    point plus a summary.  Deterministic given ``--seed``; repeated
    invocations are served entirely from the result caches.
``cache``
    Inspect (``stats``), audit (``verify`` — checksum every entry,
    ``--fix`` deletes corrupt ones) or reclaim (``prune``) the
    persistent disk result cache; ``prune`` drops entries from stale
    engine versions and, with ``--days N``, entries older than N days.
``analyze``
    Run the invariant linter (:mod:`repro.analysis`) over the package
    sources: cache-key completeness, fingerprint layering, determinism
    and fork-safety rules (DESIGN.md Section 12).  ``--strict`` exits
    nonzero on findings (the CI gate), ``--json``/``--sarif`` switch
    the report format, ``--rule ID`` filters rules, ``--root PATH``
    points at another tree (used by the fixture tests).
``stats``
    Render the run manifest (:mod:`repro.obs.export`) of the most
    recent — or a named — journaled invocation: cell accounting,
    cache hit ratio, wall-clock phase breakdown, failures.  ``--json``
    emits the raw manifest, ``--prometheus`` the metric delta in text
    exposition format.
``trace``
    Render a run's span tree (scheduling → execute → per-cell
    simulate, including process-worker spans) with self/total wall
    times.  Spans are only captured under ``--telemetry`` /
    ``REPRO_TELEMETRY``.

Shared flags: ``--blocks`` (trace length; in sampled mode, the per-cell
budget split across windows), ``--backend {serial,thread,process}`` /
``--max-workers N`` (execution-backend selection — DESIGN.md Section
10), ``--no-cache`` (disable the persistent disk cache for this
invocation), ``--progress`` (structured per-cell progress on
stderr, with a cost-weighted ETA), ``--resume`` (continue an
interrupted invocation from the disk cache plus its run journal —
completed cells are never re-simulated), and the fault-tolerance trio
``--retries N`` / ``--unit-timeout S`` / ``--on-error
{fail,skip,degrade}`` (DESIGN.md Section 11: retry failing work units
with seeded backoff, time out hung ones, and either quarantine poison
cells or degrade the backend instead of dying), and ``--telemetry
PATH`` (stream structured JSONL telemetry — progress events, the run
manifest, span records — to a file; DESIGN.md Section 13).

Every ``run``/``sweep``/``report``/``explore`` invocation writes a run
journal keyed by its *work set* (command, experiments, blocks, seeds —
not the backend), so ``--resume`` after a crash or Ctrl-C picks up
exactly where the run stopped; the cell accounting line on stderr
(``[...: N simulated, M cached]``) makes the zero-recompute guarantee
observable.
"""

from __future__ import annotations

# repro: allow-file[RPR002] -- the CLI is pure orchestration: it wires the
# engine to the excluded experiments/explore/exec layers by design, and no
# value computed here feeds back into simulation output or key material.

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional

from repro.errors import ReproError


#: Args that never change *which cells* an invocation runs — excluded
#: from the journal identity, so an interrupted process-backend run can
#: be resumed serially, to a different --out, with --progress, with a
#: different retry policy, etc.
_JOURNAL_IRRELEVANT = frozenset((
    "func", "command", "backend", "max_workers", "no_cache",
    "progress", "resume", "out", "json", "chart",
    "retries", "unit_timeout", "on_error", "telemetry", "engine",
))

#: Default window count for ``--sampled`` without an explicit ``--windows``.
_DEFAULT_WINDOWS = 4


def _invocation_material(args) -> dict:
    """The JSON-compatible work-set description journal ids hash.

    Everything that decides *which cells* run (command, experiment ids,
    blocks, windows, seeds, sweep axes, space/strategy/budget) and
    nothing that only decides *how* (backend, workers, caching, output
    destinations) — see :data:`_JOURNAL_IRRELEVANT`.
    """
    material = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in _JOURNAL_IRRELEVANT or callable(value):
            continue
        material[key] = value
    return material


def _setup_journal(args, disk_cache: bool) -> Optional[str]:
    """The path of this invocation's run journal (None when uncached:
    *disk_cache* is the resolved policy's setting).

    A fresh invocation truncates any stale journal for the same work
    set; ``--resume`` keeps it and reports how much of the interrupted
    run already completed (the disk cache serves those cells, so they
    are never re-simulated).
    """
    from repro.core.exec import RunJournal
    if not disk_cache:
        if getattr(args, "resume", False):
            raise ReproError(
                "--resume needs the disk result cache (completed cells "
                "are served from it); drop --no-cache"
            )
        return None
    journal = RunJournal.for_invocation(_invocation_material(args))
    if getattr(args, "resume", False):
        if journal.exists():
            if journal.corrupt_records:
                dropped = journal.recover()
                print(f"[resume: journal had {dropped} corrupt "
                      "record(s); salvaged the intact ones]",
                      file=sys.stderr)
            done = len(journal.completed)
            state = "complete" if journal.complete else "interrupted"
            quarantined = len(journal.quarantined)
            extra = f", {quarantined} quarantined" if quarantined else ""
            print(f"[resume: journal {os.path.basename(journal.path)} "
                  f"({state}, {done} cells recorded{extra})]",
                  file=sys.stderr)
        else:
            print("[resume: no journal for this invocation, starting "
                  "fresh]", file=sys.stderr)
    else:
        journal.reset()
    return journal.path


@contextlib.contextmanager
def _execution_scope(args):
    """Scope the CLI execution flags to one command invocation.

    Every execution flag becomes one :class:`~repro.core.exec.
    ExecutionPolicy`, validated and resolved (unset engine, disk-cache
    and telemetry settings read from the environment) before anything
    else happens, and current only inside the command; span collection
    is on inside it when telemetry is.  Nothing is written to the
    environment, so an in-process caller (tests, notebooks, examples)
    that invoked ``--no-cache`` once keeps its own settings after.
    """
    from dataclasses import replace
    from repro.core.exec import ExecutionPolicy, scoped_policy, \
        stderr_progress
    from repro.obs import tracing
    policy = ExecutionPolicy(
        backend=getattr(args, "backend", None),
        max_workers=getattr(args, "max_workers", None),
        progress=stderr_progress() if getattr(args, "progress", False)
        else None,
        retries=getattr(args, "retries", None) or 0,
        unit_timeout=getattr(args, "unit_timeout", None),
        on_error=getattr(args, "on_error", None) or "fail",
        engine=getattr(args, "engine", None),
        disk_cache=False if getattr(args, "no_cache", False) else None,
        telemetry=getattr(args, "telemetry", None),
    ).resolved()
    if hasattr(args, "resume"):
        policy = replace(policy,
                         journal=_setup_journal(args, policy.disk_cache))
    spans = tracing.enable() if policy.telemetry \
        else contextlib.nullcontext()
    with scoped_policy(policy), spans:
        yield


def _sample_windows(args) -> Optional[int]:
    """Window count selected by ``--sampled``/``--windows`` (None = off)."""
    windows = getattr(args, "windows", None)
    if windows is not None:
        if windows < 1:
            raise ReproError("--windows needs at least one window")
        return windows
    if getattr(args, "sampled", False):
        return _DEFAULT_WINDOWS
    return None


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--windows", type=int, metavar="N", default=None,
        help="sampled mode: measure each cell as N independently-seeded "
             "trace windows (mean ± 95%% CI); --blocks is the per-cell "
             "budget split across the windows",
    )
    parser.add_argument(
        "--sampled", action="store_true",
        help=f"shorthand for --windows {_DEFAULT_WINDOWS}",
    )


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blocks", type=int, default=60_000,
        help="trace length in dynamic basic blocks (default 60000)",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None, metavar="N",
        help="worker cap for the thread/process backends "
             "(default: the machine's core count)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="execution backend for simulation cells (default: process "
             "when more than one worker has work on a multi-core machine, "
             "else serial; all backends produce bit-identical results)",
    )
    parser.add_argument(
        "--engine", choices=("interpreter", "columnar"), default=None,
        help="simulation engine core (default: interpreter; columnar "
             "batches eligible cells into vectorised passes with "
             "bit-identical results — ineligible schemes fall back "
             "per cell, so the flag never changes any output)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent disk result cache for this run",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="emit per-cell progress events (done/simulated/cached, "
             "cost-weighted ETA) on stderr",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted identical invocation from the disk "
             "cache plus its run journal (completed cells are never "
             "re-simulated)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failed/hung work unit up to N times (with seeded "
             "exponential backoff; a failing multi-cell unit re-runs "
             "per cell to isolate the culprit)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="wall-clock timeout per work unit in seconds (a hung "
             "worker is killed and the unit retried)",
    )
    parser.add_argument(
        "--on-error", choices=("fail", "skip", "degrade"), default=None,
        help="after retries are exhausted: fail the run (default), "
             "skip — quarantine the poison cell and keep going — or "
             "degrade, which also falls back process -> thread -> "
             "serial when the pool itself is unrecoverable",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="stream telemetry (progress events, span traces, the run "
             "manifest) as JSONL to PATH and enable span collection "
             "(DESIGN.md Section 13); inspect with 'stats' and 'trace'",
    )


@contextlib.contextmanager
def _cell_accounting(label: str, command: Optional[str] = None,
                     emit_line: bool = True):
    """Report the command's simulated/cached cell split on stderr.

    The split depends on cache state, so it goes to stderr — stdout
    stays bit-reproducible — and it is what makes the resume guarantee
    checkable: a fully-resumed (or repeated) invocation reports
    ``0 simulated``, which the CI kill-and-resume step asserts.

    The line is rendered from the same metrics-snapshot delta that
    becomes the invocation's run manifest (DESIGN.md Section 13), so
    the two can never disagree.  When the invocation is journaled the
    manifest is written next to the journal (``repro stats`` reads
    it); with ``--telemetry`` it is also appended to the JSONL stream.
    """
    from repro.core import sweep
    from repro.core.exec import current_policy
    from repro.obs import export, gcstats, memory, metrics, tracing
    from repro.workloads.profiles import refresh_trace_memo
    tracing.drain()  # drop spans left over from earlier in-process work
    before = metrics.snapshot()
    # repro: allow[RPR003] -- observability timing on stderr/manifest only
    started = time.perf_counter()
    yield
    # repro: allow[RPR003] -- observability timing on stderr/manifest only
    elapsed = time.perf_counter() - started
    gcstats.note_frozen()
    memory.note_peak()
    refresh_trace_memo()
    delta = metrics.delta(before, metrics.snapshot())
    if emit_line:
        print(export.render_accounting(label, delta), file=sys.stderr)

    policy = current_policy()
    journal_path = policy.journal
    telemetry_path = policy.telemetry
    if not journal_path and not telemetry_path:
        return
    if journal_path:
        run_id = os.path.basename(journal_path)
        if run_id.endswith(".jsonl"):
            run_id = run_id[:-len(".jsonl")]
    else:
        run_id = "unjournaled"
    report = export.build_report(
        run_id=run_id, label=label, command=command or label,
        delta=delta, spans=tracing.drain(), elapsed=elapsed,
        failures=sweep.last_failures, journal=journal_path)
    if journal_path:
        export.write_manifest(report, export.manifest_path(journal_path))
    if telemetry_path:
        export.TelemetryWriter(telemetry_path).emit(
            "manifest", **{key: value
                           for key, value in report.to_json().items()
                           if key != "kind"})


def _resolve_ids(requested: List[str]) -> List[str]:
    from repro.experiments.registry import EXPERIMENTS, get_experiment
    if "all" in requested:
        return list(EXPERIMENTS)
    for experiment_id in requested:
        get_experiment(experiment_id)  # validates, raises with choices
    return [experiment_id.lower() for experiment_id in requested]


def _cmd_list(args) -> int:
    if getattr(args, "workloads", False):
        from repro.workloads.profiles import iter_profiles
        profiles = iter_profiles()
        width = max(len(profile.name) for profile in profiles)
        suite_width = max(len(profile.suite) for profile in profiles)
        for profile in profiles:
            print(f"{profile.name.ljust(width)}  "
                  f"[{profile.suite.ljust(suite_width)}]  "
                  f"{profile.description}")
        return 0
    from repro.experiments.registry import DESCRIPTIONS, EXPERIMENTS
    width = max(len(experiment_id) for experiment_id in EXPERIMENTS)
    for experiment_id in EXPERIMENTS:
        print(f"{experiment_id.ljust(width)}  "
              f"{DESCRIPTIONS.get(experiment_id, '')}")
    return 0


def _write_results(results, args) -> None:
    """Write results to ``--out``: a file for one, a directory for many."""
    suffix = ".json" if args.json else ".txt"
    encode = (lambda r: r.to_json(indent=2)) if args.json \
        else (lambda r: r.render())
    if len(results) == 1 and not os.path.isdir(args.out):
        payloads = {args.out: encode(results[0])}
    else:
        os.makedirs(args.out, exist_ok=True)
        payloads = {
            os.path.join(args.out, result.experiment_id + suffix):
                encode(result)
            for result in results
        }
    for path, payload in payloads.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[wrote {path}]", file=sys.stderr)


def _run_sampled(experiment_id: str, n_blocks: int, n_windows: int):
    """Run one experiment's grid in sampled mode (N windows per cell)."""
    from dataclasses import replace
    from repro.experiments.registry import get_spec
    from repro.experiments.spec import GridSpec, SampleSpec, run_grid_spec
    spec = get_spec(experiment_id)
    if not isinstance(spec, GridSpec):
        raise ReproError(
            f"{experiment_id} is a trace-analysis experiment; sampled "
            "mode needs a simulation grid (try figure6-13, colocation "
            "or frontier)"
        )
    sample = replace(spec.sample or SampleSpec(), n_windows=n_windows)
    return run_grid_spec(replace(spec, sample=sample), n_blocks=n_blocks)


def _cmd_run(args) -> int:
    from repro.experiments.registry import get_experiment
    ids = _resolve_ids(args.experiments)
    n_windows = _sample_windows(args)
    results = []
    with _cell_accounting("run " + " ".join(ids), command="run"):
        for experiment_id in ids:
            runner = get_experiment(experiment_id)
            # repro: allow[RPR003] -- elapsed-time display on stderr only
            started = time.time()
            if n_windows is not None:
                result = _run_sampled(experiment_id, args.blocks, n_windows)
            else:
                result = runner(n_blocks=args.blocks)
            elapsed = time.time() - started
            results.append(result)
            if args.json:
                print(result.to_json(indent=2))
            else:
                print(result.render())
                if args.chart:
                    from repro.experiments.charts import render_bar_chart
                    print()
                    print(render_bar_chart(result))
                print(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
                print()
    if args.out:
        _write_results(results, args)
    return 0


#: Headline per-cell metrics emitted by the sweep JSONL.
_SWEEP_METRICS = ("cycles", "instructions", "ipc", "l1i_mpki", "btb_mpki",
                  "prefetch_accuracy", "l1d_fill_latency")


def _sampled_sweep_lines(workloads, schemes, args,
                         n_windows: int) -> List[str]:
    """Sampled sweep: every metric as mean + ``*_ci95`` per cell.

    Each (workload, scheme) cell expands into its window RunSpecs —
    one collection through :func:`run_specs`, so windows dedupe, cache
    and parallelise globally; speedups pair each scheme window with the
    baseline window of the same seed.
    """
    from repro.core.metrics import speedup
    from repro.core.sweep import run_specs
    from repro.experiments.spec import RunSpec, SAMPLE_REDUCERS, SampleSpec

    sample = SampleSpec(n_windows=n_windows)
    window_blocks = sample.resolve_window_blocks(args.blocks)
    cell_windows = {
        (workload, scheme): sample.window_specs(
            RunSpec(workload=workload, scheme=scheme), args.blocks)
        for workload in workloads for scheme in schemes
    }
    results = run_specs(
        [spec for specs in cell_windows.values() for spec in specs])
    lines = []
    for workload in workloads:
        base_specs = cell_windows.get((workload, "baseline"))
        for scheme in schemes:
            windows = [results.get(spec)
                       for spec in cell_windows[(workload, scheme)]]
            record = {
                "workload": workload,
                "scheme": scheme,
                "windows": n_windows,
                "window_blocks": window_blocks,
                "seed_base": sample.seed_base,
            }
            if any(res is None for res in windows):
                # One of the cell's windows was quarantined by
                # --on-error skip/degrade: the cell has no trustworthy
                # statistics, so it is emitted as an error record.
                record["error"] = "quarantined"
                lines.append(json.dumps(record, sort_keys=False))
                continue
            for metric in _SWEEP_METRICS:
                values = [getattr(res, metric) for res in windows]
                record[metric] = SAMPLE_REDUCERS["mean"](values)
                record[metric + "_ci95"] = SAMPLE_REDUCERS["ci95"](values)
            if base_specs is not None and scheme != "baseline" \
                    and all(results.get(base) is not None
                            for base in base_specs):
                values = [
                    speedup(results[base], res)
                    for base, res in zip(base_specs, windows)
                ]
                record["speedup"] = SAMPLE_REDUCERS["mean"](values)
                record["speedup_ci95"] = SAMPLE_REDUCERS["ci95"](values)
            lines.append(json.dumps(record, sort_keys=False))
    return lines


def _cmd_sweep(args) -> int:
    from repro.core.metrics import speedup
    from repro.core.sweep import run_specs
    from repro.experiments.spec import RunSpec
    workloads = [w.strip().lower()
                 for w in args.workloads.split(",") if w.strip()]
    schemes = [s.strip().lower()
               for s in args.schemes.split(",") if s.strip()]
    if not workloads or not schemes:
        raise ReproError("sweep needs at least one workload and one scheme")
    n_windows = _sample_windows(args)
    if n_windows is not None:
        if args.seed != 0:
            raise ReproError(
                "--seed selects a single reference trace; sampled mode "
                "seeds its own independent windows — drop one of the two"
            )
        with _cell_accounting("sweep", command="sweep"):
            lines = _sampled_sweep_lines(workloads, schemes, args,
                                         n_windows)
    else:
        cells = {
            (workload, scheme): RunSpec(workload=workload, scheme=scheme,
                                        n_blocks=args.blocks,
                                        seed=args.seed).canonical()
            for workload in workloads for scheme in schemes
        }
        with _cell_accounting("sweep", command="sweep"):
            results = run_specs(cells.values())
        lines = []
        for workload in workloads:
            base = results.get(cells.get((workload, "baseline")))
            for scheme in schemes:
                result = results.get(cells[workload, scheme])
                record = {
                    "workload": workload,
                    "scheme": scheme,
                    "n_blocks": args.blocks,
                    "seed": args.seed,
                }
                if result is None:
                    # Quarantined under --on-error skip/degrade: emit
                    # an explicit error record so downstream consumers
                    # see the hole instead of a silently missing line.
                    record["error"] = "quarantined"
                    lines.append(json.dumps(record, sort_keys=False))
                    continue
                record.update({
                    metric: getattr(result, metric)
                    for metric in _SWEEP_METRICS
                })
                if base is not None and scheme != "baseline":
                    record["speedup"] = speedup(base, result)
                lines.append(json.dumps(record, sort_keys=False))
    payload = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[wrote {len(lines)} cells to {args.out}]", file=sys.stderr)
    else:
        print(payload)
    return 0


def _resolve_space(name: str):
    """Resolve ``--space``: a registered space name or a JSON file path.

    Only an explicit path shape (a ``.json`` suffix or a path
    separator) selects the file branch, so a stray file in the working
    directory can never shadow a registered space name.
    """
    from repro.explore.space import ParamSpace, get_space
    if name.endswith(".json") or os.path.sep in name:
        try:
            with open(name, "r", encoding="utf-8") as handle:
                return ParamSpace.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise ReproError(f"cannot load space file {name!r}: {error}")
    return get_space(name)


def _cmd_explore(args) -> int:
    from dataclasses import replace
    from repro.explore.report import explore
    space = _resolve_space(args.space)
    if args.space_workloads:
        workloads = tuple(
            w.strip().lower()
            for w in args.space_workloads.split(",") if w.strip()
        )
        if not workloads:
            raise ReproError("--workloads needs at least one workload")
        space = replace(space, workloads=workloads)
    objectives = [o for o in args.objectives.split(",") if o.strip()]
    # The explore report renders its own accounting line below;
    # _cell_accounting still runs to produce the run manifest.
    with _cell_accounting("explore", command="explore", emit_line=False):
        result = explore(
            space,
            strategy=args.strategy,
            objectives=objectives,
            budget=args.budget,
            n_blocks=args.blocks,
            seed=args.seed,
        )
    payload = result.to_jsonl() if args.json else result.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[wrote {len(result.evaluated)} points to {args.out}]",
              file=sys.stderr)
    else:
        print(payload)
    # Cache accounting goes to stderr: it depends on cache state, and
    # stdout must stay bit-reproducible for a given --seed.
    failures = f", {result.failures} quarantined" if result.failures else ""
    print(f"[{result.cells} cells: {result.simulations} simulated, "
          f"{result.cells - result.simulations} cached{failures}]",
          file=sys.stderr)
    return 0


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" \
                else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"  # pragma: no cover - loop always returns


def _cmd_cache(args) -> int:
    from repro.core import diskcache
    from repro.core.exec import current_policy
    if args.cache_command == "stats":
        stats = {"enabled": current_policy().disk_cache,
                 **diskcache.stats()}
        if args.json:
            print(json.dumps(stats, sort_keys=False))
            return 0
        print(f"cache dir:      {stats['cache_dir']}")
        print(f"enabled:        {stats['enabled']}")
        print(f"engine version: {stats['engine_version']} (current)")
        print(f"entries:        {stats['entries']} "
              f"({_format_bytes(stats['bytes'])})")
        ratio = stats["hit_ratio"]
        ratio_text = f"{ratio:.1%}" if ratio is not None else "n/a"
        print(f"hits/misses:    {stats['hits']}/{stats['misses']} "
              f"(ratio {ratio_text}, this process)")
        print(f"stores:         {stats['stores']} "
              f"({stats['corrupt']} corrupt evicted)")
        for version in sorted(stats["by_version"],
                              key=lambda v: (v is None, v)):
            bucket = stats["by_version"][version]
            label = "corrupt" if version is None else f"v{version}"
            marker = " <- current" \
                if version == stats["engine_version"] else ""
            print(f"  {label}: {bucket['entries']} entries "
                  f"({_format_bytes(bucket['bytes'])}){marker}")
        return 0
    if args.cache_command == "prune":
        report = diskcache.prune(days=args.days)
        skipped = f", {report['skipped']} unreadable skipped" \
            if report.get("skipped") else ""
        print(f"pruned {report['removed']} entries "
              f"({_format_bytes(report['freed_bytes'])} freed{skipped})")
        for path in report.get("skipped_paths", ()):
            print(f"  skipped: {path}", file=sys.stderr)
        return 0
    if args.cache_command == "verify":
        report = diskcache.verify(fix=args.fix)
        if args.json:
            print(json.dumps(report, sort_keys=False))
        else:
            print(f"verified {report['entries']} entries: "
                  f"{report['ok']} ok, {report['legacy']} legacy, "
                  f"{report['corrupt']} corrupt"
                  + (f" ({report['removed']} removed)"
                     if args.fix else ""))
            for path in report["corrupt_paths"]:
                print(f"  corrupt: {path}", file=sys.stderr)
        # Corrupt entries still on disk after the audit: exit nonzero so
        # CI and scripts notice (with --fix they were deleted).
        return 1 if report["corrupt"] - report["removed"] > 0 else 0
    raise ReproError("cache needs a subcommand: stats, verify or prune")


def _cmd_report(args) -> int:
    from repro.experiments.registry import get_experiment
    ids = _resolve_ids(args.experiments or ["all"])
    os.makedirs(args.out, exist_ok=True)
    with _cell_accounting("report", command="report"):
        for experiment_id in ids:
            # repro: allow[RPR003] -- elapsed-time display on stdout only
            started = time.time()
            result = get_experiment(experiment_id)(n_blocks=args.blocks)
            elapsed = time.time() - started
            for suffix, payload in ((".txt", result.render()),
                                    (".json", result.to_json(indent=2))):
                path = os.path.join(args.out, experiment_id + suffix)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
            print(f"[{experiment_id} written to {args.out} "
                  f"in {elapsed:.1f}s]")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import analyze
    report = analyze(root=args.root, rule_ids=args.rule or None)
    if args.sarif:
        rendered = report.to_sarif()
    elif args.json:
        rendered = report.to_json()
    else:
        rendered = report.render_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    # The summary always lands on stderr so machine-readable stdout/file
    # output stays clean while humans and CI logs still see the verdict.
    print(report.summary(), file=sys.stderr)
    return 1 if (args.strict and not report.ok) else 0


def _cmd_stats(args) -> int:
    from repro.obs import export
    try:
        manifest = export.resolve_manifest(args.run)
    except (OSError, ValueError) as error:
        raise ReproError(str(error))
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    elif args.prometheus:
        metrics = manifest.get("metrics") or {}
        print(export.render_prometheus({
            "counters": metrics.get("counters", {}),
            "gauges": metrics.get("gauges", {}),
            "histograms": metrics.get("histograms", {}),
        }))
    else:
        print(export.render_manifest(manifest))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import export
    try:
        manifest = export.resolve_manifest(args.run)
    except (OSError, ValueError) as error:
        raise ReproError(str(error))
    print(export.render_trace(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=("Declarative experiment pipeline for the Shotgun "
                     "reproduction: list, run and sweep the paper's "
                     "experiments."),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered experiments (or workload families)")
    list_parser.add_argument(
        "--workloads", action="store_true",
        help="list the workload-family registry instead of experiments",
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = commands.add_parser(
        "run", help="regenerate experiments (tables/figures)")
    run_parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (see 'list') or 'all'",
    )
    _add_execution_flags(run_parser)
    _add_sampling_flags(run_parser)
    run_parser.add_argument(
        "--chart", action="store_true",
        help="also render each result as an ASCII bar chart",
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of rendered tables",
    )
    run_parser.add_argument(
        "--out", metavar="PATH",
        help="write results to a file (one experiment) or directory",
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="run a raw workload × scheme grid, emit JSONL")
    sweep_parser.add_argument(
        "--workloads", required=True,
        help="comma-separated workload names",
    )
    sweep_parser.add_argument(
        "--schemes", required=True,
        help="comma-separated scheme names (include 'baseline' to get "
             "per-cell speedups)",
    )
    _add_execution_flags(sweep_parser)
    _add_sampling_flags(sweep_parser)
    sweep_parser.add_argument(
        "--seed", type=int, default=0,
        help="trace seed selector (0 = reference seeds)",
    )
    sweep_parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSONL grid to a file instead of stdout",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    explore_parser = commands.add_parser(
        "explore",
        help="budget-aware design-space exploration (Pareto frontier)")
    explore_parser.add_argument(
        "--space", default="frontend",
        help="design space: a registered name (see repro.explore.SPACES) "
             "or a JSON space file (default: frontend)",
    )
    explore_parser.add_argument(
        "--strategy", default="random",
        help="search strategy: exhaustive, random, hillclimb or halving "
             "(default: random)",
    )
    explore_parser.add_argument(
        "--budget", type=int, default=16, metavar="N",
        help="max simulations: distinct simulation cells the search may "
             "request, cold-cache upper bound (default 16)",
    )
    explore_parser.add_argument(
        "--objectives", default="speedup,storage_bits",
        help="comma-separated objectives, first is primary "
             "(default: speedup,storage_bits)",
    )
    explore_parser.add_argument(
        "--seed", type=int, default=0,
        help="strategy RNG seed; searches are bit-reproducible per seed",
    )
    explore_parser.add_argument(
        "--workloads", dest="space_workloads", metavar="W1,W2",
        help="override the space's workload evaluation set",
    )
    _add_execution_flags(explore_parser)
    explore_parser.add_argument(
        "--json", action="store_true",
        help="emit JSONL (one line per evaluated point plus a summary) "
             "instead of the rendered frontier table",
    )
    explore_parser.add_argument(
        "--out", metavar="PATH",
        help="write the output to a file instead of stdout",
    )
    explore_parser.set_defaults(func=_cmd_explore)

    cache_parser = commands.add_parser(
        "cache", help="inspect or prune the persistent disk result cache")
    cache_commands = cache_parser.add_subparsers(dest="cache_command",
                                                 required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="entry count and bytes, grouped by engine version")
    cache_stats.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON",
    )
    cache_verify = cache_commands.add_parser(
        "verify", help="checksum-audit every cache entry; exits 1 when "
                       "corrupt entries remain")
    cache_verify.add_argument(
        "--fix", action="store_true",
        help="delete corrupt entries (their cells re-simulate on the "
             "next run)",
    )
    cache_verify.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON",
    )
    cache_prune = cache_commands.add_parser(
        "prune", help="drop stale-engine-version (and optionally old) "
                      "entries")
    cache_prune.add_argument(
        "--days", type=float, default=None, metavar="N",
        help="also drop entries older than N days (any version)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    report_parser = commands.add_parser(
        "report", help="run experiments and write rendered + JSON files")
    report_parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: all)",
    )
    _add_execution_flags(report_parser)
    report_parser.add_argument(
        "--out", metavar="DIR", default="results",
        help="output directory (default ./results)",
    )
    report_parser.set_defaults(func=_cmd_report)

    analyze_parser = commands.add_parser(
        "analyze",
        help="statically check the invariant rules (cache keys, "
             "fingerprint layering, determinism, fork safety)")
    analyze_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any unsuppressed finding remains (CI gate)",
    )
    analyze_format = analyze_parser.add_mutually_exclusive_group()
    analyze_format.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report",
    )
    analyze_format.add_argument(
        "--sarif", action="store_true",
        help="emit a SARIF 2.1.0 log (for CI annotation/upload)",
    )
    analyze_parser.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule (repeatable, e.g. --rule RPR003)",
    )
    analyze_parser.add_argument(
        "--root", metavar="PATH", default=None,
        help="source tree to analyze (default: the installed repro "
             "package)",
    )
    analyze_parser.add_argument(
        "--out", metavar="PATH",
        help="write the report to a file instead of stdout",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    stats_parser = commands.add_parser(
        "stats",
        help="render the run manifest of the last (or named) journaled "
             "invocation")
    stats_parser.add_argument(
        "run", nargs="?", default=None,
        help="run-id prefix, journal/manifest/telemetry path "
             "(default: the most recent manifest)",
    )
    stats_format = stats_parser.add_mutually_exclusive_group()
    stats_format.add_argument(
        "--json", action="store_true",
        help="emit the raw manifest JSON",
    )
    stats_format.add_argument(
        "--prometheus", action="store_true",
        help="emit the run's metric delta in Prometheus text exposition",
    )
    stats_parser.set_defaults(func=_cmd_stats)

    trace_parser = commands.add_parser(
        "trace",
        help="render a run's span tree with self/total wall times")
    trace_parser.add_argument(
        "run", nargs="?", default=None,
        help="run-id prefix, journal/manifest/telemetry path "
             "(default: the most recent manifest)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _execution_scope(args):
            return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
