"""The repository benchmark: cold pool report and sampled columnar sweep.

Usage::

    python3 perfbench/run.py --workload report-pool --seed 1 \
        --seconds 24 --trace 0

Each workload is a closed loop with one client: the benchmark starts one
invocation (a fresh interpreter, see ``invocation.py``), waits for it to
end, and starts the next while one more still fits in ``--seconds``; a
run always completes the workload's fewest invocations.
``--workload all`` runs every workload in turn.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the run's invocations); with ``--trace 1`` it reports the
per-layer metrics of one traced invocation, measured beside one
untraced invocation of the same inputs.  Every invocation's simulated
statistics are digested and must equal the digest of a second
execution path (see ``README.md``); a mismatch, a cache-state guard
failure or a crash marks the invocation's cells failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional

import invocation
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

#: A run must end within this many seconds.
RUN_BUDGET = 170.0

#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 5

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_kips": "kinstr/s",
    "cells_per_s": "1/s",
}

#: Why a per-layer metric reads zero on a workload, for the traced
#: report: keyed by metric name or by its layer prefix; "" is the
#: workload's fallback.
ZERO_REASONS = {
    "report-pool": {
        "diskcache.hit_ratio": "cold cache: every probe misses",
        "columnar": "the default engine is the interpreter",
        "": "scheme or layer not used by Table 1 + Figure 7",
    },
    "sampled-columnar": {
        "diskcache.hit_ratio": "cold cache: every probe misses",
        "exec": "serial backend: no pool",
        "": "the columnar engine runs baseline and ideal",
    },
}


class Invocation:
    """One child process's outcome."""

    def __init__(self, result: Optional[Dict[str, Any]], error: str) -> None:
        self.result = result or {}
        self.error = error

    def get(self, key: str, default: Any = None) -> Any:
        return self.result.get(key, default)


class Runner:
    """Starts benchmark child processes inside one work directory."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def _cache(self) -> str:
        """A fresh, not yet created, result-cache directory."""
        self.count += 1
        return os.path.join(WORK, f"{self.workload}-{self.count}")

    def start(self, cache: str, *flags: str) -> subprocess.Popen:
        command = [sys.executable, os.path.join(HERE, "invocation.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--cache", cache, "--spawned", str(invocation.clock()),
                   *flags]
        return subprocess.Popen(command, env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)

    def finish(self, process: subprocess.Popen) -> Invocation:
        """Wait for *process* (killing its process group at the deadline)."""
        try:
            out, err = process.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill(process)
            return Invocation(None, "timed out")
        except BaseException:
            _kill(process)
            raise
        lines = out.strip().splitlines()
        try:
            if process.returncode == 0 and lines:
                return Invocation(json.loads(lines[-1]), "")
        except ValueError:
            pass
        tail = err.strip().splitlines()[-1:] or ["no result line"]
        return Invocation(None, f"exit {process.returncode}: {tail[0]}")

    def invoke(self, *flags: str) -> Invocation:
        cache = self._cache()
        try:
            return self.finish(self.start(cache, *flags))
        finally:
            shutil.rmtree(cache, ignore_errors=True)


def _kill(process: subprocess.Popen) -> None:
    """Kill *process* and its pool workers, and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def source_facts() -> Dict[str, Any]:
    """Identify the code under test without needing a git checkout."""
    sha = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": sha.hexdigest()}


def run_workload(name: str, seed: int, seconds: int,
                 trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the result object and report lines."""
    fewest = invocation.WORKLOADS[name][3]
    runner = Runner(name, seed, time.monotonic() + RUN_BUDGET)
    invocations: List[Invocation] = []
    traced: Optional[Invocation] = None
    started = time.monotonic()
    if trace:
        invocations.append(runner.invoke("--reference"))
        traced = runner.invoke("--traced")
        invocations.append(traced)
    else:
        # Start another invocation while the workload's minimum is not
        # met, or while one more, as long as the last one's own set-up
        # and work, still ends inside the window.
        invocations.append(runner.invoke("--reference"))
        while True:
            last = invocations[-1]
            length = (last.get("setup_s") or 0.0) + (last.get("wall_s") or 0.0)
            if len(invocations) >= fewest and \
                    time.monotonic() - started + length > seconds:
                break
            invocations.append(runner.invoke())
    reference = invocations[0].get("reference_digest")
    pinned = _pinned(name, seed)

    attempted = failed = 0
    expected_cells = max([inv.get("cells", 0) for inv in invocations] + [1])
    good: List[Invocation] = []
    for inv in invocations:
        cells = inv.get("cells") or expected_cells
        attempted += cells
        if not inv.error:
            if inv.get("guard"):
                inv.error = f"guard: {inv.get('guard')}"
            elif inv.get("digest") != reference:
                inv.error = (f"digest {str(inv.get('digest'))[:12]} != "
                             f"reference {str(reference)[:12]}")
            elif pinned is not None and inv.get("digest") != pinned:
                inv.error = f"digest differs from pinned {pinned[:12]}"
        if inv.error:
            failed += cells
        else:
            good.append(inv)

    setups = [inv.get("setup_s") for inv in invocations
              if inv.get("setup_s") is not None]
    while not trace and len(setups) < SETUP_SAMPLES:
        sample = runner.invoke("--setup-only")
        if sample.error or sample.get("guard"):
            break
        setups.append(sample.get("setup_s"))

    metrics: Dict[str, Dict[str, Any]] = {}
    if trace and traced is not None and not traced.error and good:
        values = dict(traced.get("layers"))
        values["obs.trace_overhead_frac"] = \
            traced.get("wall_s") / invocations[0].get("wall_s") - 1.0
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in layers.METRICS.items()}
    elif not trace and good:
        def median(key: str) -> float:
            return statistics.median(inv.get(key) for inv in good)
        values = {
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": statistics.median(setups),
            "sim_kips": statistics.median(
                inv.get("instructions") / inv.get("wall_s") / 1000.0
                for inv in good),
            "cells_per_s": statistics.median(
                inv.get("cells") / inv.get("wall_s") for inv in good),
        }
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END.items()}

    first = good[0] if good else Invocation(None, "")
    facts = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "invocations": len(invocations),
        "setup_samples": len(setups),
        "digest": reference,
        "pinned_digest": pinned,
        "engine": first.get("engine"),
        "backend": first.get("backend"),
        "workers": first.get("workers"),
        "nproc": invocation.nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "errors": [inv.error for inv in invocations if inv.error],
    }
    return {
        "result": {"correct": failed == 0 and bool(good),
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "facts": facts,
    }


def _pinned(name: str, seed: int) -> Optional[str]:
    """The committed digest for (workload, seed), if one is pinned."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(name, {}).get(str(seed))


def _zero_reason(workload: str, metric: str) -> str:
    reasons = ZERO_REASONS[workload]
    for key in (metric, metric.split(".")[0], ""):
        if key in reasons:
            return reasons[key]
    return ""


def render(outcome: Dict[str, Any]) -> List[str]:
    """Human-readable lines: every metric by name and unit, plus notes."""
    facts, result = outcome["facts"], outcome["result"]
    status = "ok" if result["correct"] else "FAILED"
    lines = [f"{facts['workload']} seed={facts['seed']}: "
             f"{facts['invocations']} invocation(s), digest "
             f"{str(facts['digest'])[:16]} {status}"]
    for error in facts["errors"]:
        lines.append(f"  error: {error}")
    for key, metric in result["metrics"].items():
        note = ""
        if metric["value"] == 0:
            reason = _zero_reason(facts["workload"], key)
            note = f"   ({reason})" if reason else ""
        lines.append(f"  {key:<36} {metric['value']:>16.6f} "
                     f"{metric['unit']}{note}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*invocation.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children (see Runner.finish).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found beside the benchmark; run "
              "it from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(invocation.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    facts = source_facts()
    os.makedirs(WORK, exist_ok=True)
    outcomes = []
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
            outcome["facts"].update(facts)
            outcomes.append(outcome)
            print("\n".join(render(outcome)))
            print(json.dumps({"facts": outcome["facts"]}, sort_keys=True))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(outcomes) == 1:
        final = outcomes[0]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outcomes),
            "attempted": sum(o["result"]["attempted"] for o in outcomes),
            "failed": sum(o["result"]["failed"] for o in outcomes),
            "metrics": {f"{o['facts']['workload']}/{key}": metric
                        for o in outcomes
                        for key, metric in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
