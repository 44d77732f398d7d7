"""A long sampled run grows in memory only by what its trace memo holds.

Two fresh ``python -m repro sweep`` sampled runs of the same cells, one
with 8 windows and one with 48 (1,000 blocks each), report their
parent's peak resident set and the trace memo's estimated bytes in the
manifest's ``memory`` section.  Everything a run keeps besides the
trace memo — programs, the walk columns, warm LLCs, results, spans —
must not grow with the window count, so the peak minus the memo grows
by less than :data:`MARGIN_MB` from the short run to the long one.
Both runs are on the same host, so the check holds on any host and
core count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

WINDOW_BLOCKS = 1_000

#: Ten pairs of runs on a 2-CPU Linux host grew by -0.28 to -0.05 MB
#: (the memo's estimate slightly exceeds what its traces cost in RSS);
#: the margin is well above that spread and below the 4.9 MB the memo
#: itself grows by.
MARGIN_MB = 2.0


def _peak_beside_memo(tmp_path, windows: int) -> float:
    """Parent peak minus trace memo, in MB, of one fresh sampled run."""
    stream = tmp_path / f"telemetry-{windows}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    # Linux carries a process's peak across exec from the address space
    # it was forked (or vforked) from, so a run started straight from
    # this test would report the test process's own resident set as
    # its peak.  A small interpreter in between starts it from a small
    # address space.
    subprocess.run(
        [sys.executable, "-c",
         "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))",
         sys.executable, "-m", "repro", "sweep", "--workloads", "nutch",
         "--schemes", "baseline,shotgun", "--windows", str(windows),
         "--blocks", str(windows * WINDOW_BLOCKS), "--backend", "serial",
         "--engine", "columnar", "--no-cache", "--telemetry", str(stream),
         "--out", str(tmp_path / f"grid-{windows}.jsonl")],
        check=True, capture_output=True, env=env, timeout=300)
    records = [json.loads(line)
               for line in stream.read_text().splitlines() if line]
    memory = [record for record in records
              if record["kind"] == "manifest"][-1]["memory"]
    if memory["parent_peak_mb"] is None:
        pytest.skip("no peak resident set on this host")
    memo = memory["trace_memo"]
    assert memo["trace_evictions"] == 0
    assert memo["traces_held"] == windows
    return memory["parent_peak_mb"] - memo["trace_bytes"] / 2**20


def test_sampled_run_is_flat_beside_its_trace_memo(tmp_path):
    short = _peak_beside_memo(tmp_path, 8)
    long = _peak_beside_memo(tmp_path, 48)
    assert long - short < MARGIN_MB, (short, long)
