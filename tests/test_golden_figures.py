"""End-to-end golden snapshots: every experiment's canonical metrics.

Each registered experiment is run at a small, fixed trace budget and
compared — value for value, exactly — against a JSON snapshot pinned
under ``tests/golden/``.  The engine is deterministic and the execution
backends are bit-identical, so these snapshots hold across serial,
thread and process execution, warm or cold caches, and machines: any
mismatch means simulation output drifted.

That is the contract the suite enforces: **engine-output drift without
an** ``ENGINE_VERSION`` **bump fails loudly**.  A deliberate change to
the timing model must bump :data:`repro.core.diskcache.ENGINE_VERSION`
(stale cache entries would otherwise mask the change) and regenerate
the snapshots::

    PYTHONPATH=src python tests/test_golden_figures.py

A 1-ULP perturbation anywhere in the engine shows up here — snapshots
compare full float repr round-trips, not rounded table text.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment

#: Trace budget for snapshot runs: small enough that the whole registry
#: regenerates in well under a minute, long enough past trace warm-up
#: that every scheme's structures see steady-state behaviour.
GOLDEN_BLOCKS = 2000

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Pinned files in ``GOLDEN_DIR`` that are not experiment snapshots
#: (workload-construction digests, see ``test_golden_workloads.py``).
NON_EXPERIMENT_GOLDENS = frozenset({"workloads"})


def golden_path(experiment_id: str) -> str:
    return os.path.join(GOLDEN_DIR, experiment_id + ".json")


def compute_snapshot(experiment_id: str) -> dict:
    """The experiment's machine-readable result at the golden budget.

    Round-tripped through JSON so the comparison sees exactly what the
    snapshot file can represent (float repr is exact for doubles, so
    nothing is lost — a 1-ULP change still differs).
    """
    result = get_experiment(experiment_id)(n_blocks=GOLDEN_BLOCKS)
    return json.loads(result.to_json())


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_golden_snapshot(experiment_id):
    path = golden_path(experiment_id)
    assert os.path.exists(path), (
        f"no golden snapshot for {experiment_id!r}; generate one with "
        f"`PYTHONPATH=src python tests/test_golden_figures.py`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    actual = compute_snapshot(experiment_id)
    assert actual == pinned, (
        f"{experiment_id}: engine output drifted from the pinned golden "
        f"snapshot ({path}).  If this change is intentional, bump "
        f"repro.core.diskcache.ENGINE_VERSION (stale disk-cache entries "
        f"would otherwise mask it) and regenerate the snapshots with "
        f"`PYTHONPATH=src python tests/test_golden_figures.py`."
    )


def test_every_experiment_has_a_snapshot():
    """New experiments must pin a snapshot in the same PR."""
    missing = [experiment_id for experiment_id in EXPERIMENTS
               if not os.path.exists(golden_path(experiment_id))]
    assert not missing, (
        f"experiments without golden snapshots: {missing}; run "
        f"`PYTHONPATH=src python tests/test_golden_figures.py`"
    )


def test_no_orphan_snapshots():
    """Snapshots for deregistered experiments must be deleted."""
    on_disk = {name[:-len(".json")] for name in os.listdir(GOLDEN_DIR)
               if name.endswith(".json")}
    orphans = sorted(on_disk - set(EXPERIMENTS) - NON_EXPERIMENT_GOLDENS)
    assert not orphans, f"golden snapshots without experiments: {orphans}"


def regenerate() -> None:
    """Rewrite every snapshot from the current engine (maintainers)."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for experiment_id in sorted(EXPERIMENTS):
        snapshot = compute_snapshot(experiment_id)
        with open(golden_path(experiment_id), "w",
                  encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"[pinned {golden_path(experiment_id)}]")


if __name__ == "__main__":
    regenerate()
