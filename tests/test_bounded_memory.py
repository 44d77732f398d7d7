"""A long sampled run grows in memory only by what its trace memo holds.

Two fresh ``python -m repro sweep`` sampled runs of the same cells, one
with 8 windows and one with 48 (1,000 blocks each), report their
parent's peak resident set and the trace memo's estimated bytes in the
manifest's ``memory`` section.  Everything a run keeps besides the
trace memo — programs, the walk columns, warm LLCs, results, spans —
must not grow with the window count, so the peak minus the memo grows
by less than :data:`MARGIN_MB` from the short run to the long one.
Both runs are on the same host, so the check holds on any host and
core count.  A run started straight from a large process reports its
own peak, not that process's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs.memory import peak_rss_mb

WINDOW_BLOCKS = 1_000

#: Ten pairs of runs on a 2-CPU Linux host grew by -0.28 to -0.05 MB
#: (the memo's estimate slightly exceeds what its traces cost in RSS);
#: the margin is well above that spread and below the 4.9 MB the memo
#: itself grows by.
MARGIN_MB = 2.0


def _run_memory(tmp_path, windows: int) -> dict:
    """The manifest's ``memory`` section of one fresh sampled run,
    started straight from this process."""
    stream = tmp_path / f"telemetry-{windows}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--workloads", "nutch",
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
    return memory


def _peak_beside_memo(tmp_path, windows: int) -> float:
    """Parent peak minus trace memo, in MB, of one fresh sampled run."""
    memory = _run_memory(tmp_path, windows)
    memo = memory["trace_memo"]
    assert memo["trace_evictions"] == 0
    assert memo["traces_held"] == windows
    return memory["parent_peak_mb"] - memo["trace_bytes"] / 2**20


def test_sampled_run_is_flat_beside_its_trace_memo(tmp_path):
    short = _peak_beside_memo(tmp_path, 8)
    long = _peak_beside_memo(tmp_path, 48)
    assert long - short < MARGIN_MB, (short, long)


#: Resident bytes the launching test process holds while the run starts.
BALLAST_MB = 200


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the exec-reset peak (VmHWM) is Linux's")
def test_run_reports_its_own_peak_not_its_launchers(tmp_path):
    """A run exec'd straight from a process holding 200 MB reports its
    own peak: Linux carries ``ru_maxrss`` across exec from the address
    space a process was forked from, ``VmHWM`` starts again."""
    ballast = bytearray(b"\x01") * (BALLAST_MB * 2**20)
    try:
        assert peak_rss_mb() >= BALLAST_MB
        memory = _run_memory(tmp_path, 2)
    finally:
        del ballast
    assert memory["parent_peak_mb"] < BALLAST_MB / 2, memory
