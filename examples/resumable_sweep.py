"""Resumable sweep: backends, progress events and the run journal.

Runs a small workload × scheme grid through each execution backend
(DESIGN.md Section 10), watches structured progress events, journals
the run, and then demonstrates the resume guarantee: a second pass over
the same cells — as after a crash or Ctrl-C — performs zero
simulations, with every cell served from the persistent disk cache the
journal records.

Run with::

    python examples/resumable_sweep.py

(The CLI equivalents are ``python -m repro run|sweep|explore`` with
``--backend``, ``--max-workers``, ``--progress`` and ``--resume``.)
"""

import os
import tempfile

from repro.core.exec import RunJournal, chunk_specs, usable_cpus
from repro.core.sweep import clear_result_cache, run_specs, \
    simulation_meter
from repro.experiments.spec import RunSpec

WORKLOADS = ("nutch", "db2")
SCHEMES = ("baseline", "boomerang", "shotgun")
N_BLOCKS = 20_000


def main() -> None:
    specs = [RunSpec(workload=workload, scheme=scheme, n_blocks=N_BLOCKS)
             for workload in WORKLOADS for scheme in SCHEMES]

    # How the scheduler will batch these cells: cost-sized work units,
    # dispatched longest-first and drained work-stealing-style.
    units = chunk_specs(specs, max_workers=usable_cpus())
    print(f"{len(specs)} cells -> {len(units)} work units "
          f"(costs: {[unit.cost for unit in units]})")

    # 1. Cold pass on the process backend, journalled, with progress.
    journal = RunJournal(os.path.join(tempfile.gettempdir(),
                                      "repro-example-journal.jsonl"))
    journal.reset()

    def on_progress(event):
        if event.kind == "cell":
            eta = (f", eta {event.eta_seconds:.0f}s"
                   if event.eta_seconds is not None else "")
            print(f"  [{event.done}/{event.total}] "
                  f"{event.spec.workload}/{event.spec.scheme} "
                  f"({event.source}{eta})")

    with simulation_meter() as meter:
        results = run_specs(specs, backend="process",
                            progress=on_progress, journal=journal)
    print(f"first pass: {meter.count} simulated, "
          f"journal recorded {len(journal.completed)} cells "
          f"(finished={journal.finished})")

    # 2. Resume pass: a fresh process would find every journalled cell
    #    in the disk cache.  Dropping the in-process memo simulates
    #    that restart; zero cells re-simulate, on any backend.
    clear_result_cache()
    with simulation_meter() as meter:
        resumed = run_specs(specs, backend="thread",
                            journal=RunJournal(journal.path))
    print(f"resume pass: {meter.count} simulated "
          f"({len(resumed)} cells served from the disk cache)")

    shotgun = resumed[specs[2].canonical()]
    baseline = resumed[specs[0].canonical()]
    print(f"\nnutch: baseline IPC {baseline.ipc:.2f} -> "
          f"shotgun IPC {shotgun.ipc:.2f}")
    assert meter.count == 0, "resume must not re-simulate completed cells"


if __name__ == "__main__":
    main()
