"""Self-test of the benchmark at a tiny size.

Run with::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs twice as a traced invocation, in fresh processes,
with the sizes in ``invocation.py`` shrunk to TINY.  The exact counts
(cells, simulated instructions, programs needed, the columnar cell
ratio, the digest) must repeat across the two runs, the digest must
equal the second execution path's and the one pinned below, and the
cache-state guard must pass.  report-pool still builds the six Table 2
programs, so the whole test takes about two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import invocation  # noqa: E402

#: Module-level sizes of ``invocation.py`` for the tiny runs.
TINY = {
    "REPORT_BLOCKS": 400,
    "SAMPLED_WINDOWS": 2,
    "SAMPLED_BLOCKS": 800,
}

SEED = 3

#: Digests of the simulated statistics at TINY size and SEED.  An engine
#: change that alters any simulated statistic changes these.
PINNED = {
    "report-pool":
        "682a933f000b690b894e65db44dac3f4a3f8c7719efd07860187cd9fcb14ba83",
    "sampled-columnar":
        "bdd9c9fb32a313f377d4b6f5ed7892337b52d0017c1f9c96ca1189061faba2f9",
}

_BOOT = (
    "import sys; sys.path.insert(0, {here!r}); import invocation; "
    "[setattr(invocation, k, v) for k, v in {tiny!r}.items()]; "
    "sys.exit(invocation.main(sys.argv[1:]))"
).format(here=HERE, tiny=TINY)


def _invoke(workload: str, cache: str, *flags: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(invocation.ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _BOOT, "--workload", workload,
         "--seed", str(SEED), "--cache", cache,
         "--spawned", str(invocation.clock()), *flags],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _run_once(workload: str, directory: str) -> dict:
    result = _invoke(workload, os.path.join(directory, "cache"),
                     "--traced", "--reference")
    layers = result["layers"]
    return {
        "guard": result["guard"],
        "cells": result["cells"],
        "instructions": result["instructions"],
        "counts": result["counts"],
        "programs_needed": layers["generator.programs_needed"],
        "cell_ratio": layers["columnar.cell_ratio"],
        "digest": result["digest"],
        "reference": result["reference_digest"],
    }


@pytest.mark.parametrize("workload", sorted(invocation.WORKLOADS))
def test_counts_repeat_and_digests_agree(workload, tmp_path):
    first = _run_once(workload, str(tmp_path / "first"))
    second = _run_once(workload, str(tmp_path / "second"))
    assert first == second
    assert first["guard"] is None
    assert first["digest"] == first["reference"]
    assert first["digest"] == PINNED[workload]
    assert first["counts"]["cached"] == 0
    if workload == "sampled-columnar":
        assert first["cell_ratio"] == pytest.approx(1 / 3)
