"""OLTP front-end study: where do the stall cycles go?

The paper's motivating scenario (Section 1): OLTP server stacks with
multi-MB instruction footprints overwhelm the L1-I and BTB.  This example
runs every control-flow delivery mechanism on the Oracle-like workload
and breaks the cycle budget down into its stall components, reproducing
the qualitative story of Sections 2 and 6: Boomerang drowns in reactive
BTB-fill stalls, Confluence pays stream-restart latency, and Shotgun's
spatial footprints keep the prefetcher running ahead.

Run with::

    python examples/oltp_frontend_study.py [workload] [n_blocks]
"""

import sys

from repro.core.metrics import frontend_stall_coverage, speedup
from repro.core.sweep import run_specs
from repro.experiments.reporting import format_table
from repro.experiments.spec import RunSpec

SCHEMES = ("baseline", "fdip", "boomerang", "confluence", "shotgun",
           "ideal")


def main(workload: str = "oracle", n_blocks: int = 30_000) -> None:
    print(f"Front-end stall breakdown on {workload} "
          f"({n_blocks} basic blocks)\n")
    cells = {name: RunSpec(workload=workload, scheme=name,
                           n_blocks=n_blocks).canonical()
             for name in SCHEMES}
    simulated = run_specs(cells.values())
    results = {name: simulated[cell] for name, cell in cells.items()}
    base = results["baseline"]

    headers = ["scheme", "speedup", "coverage", "L1-I stall",
               "FTQ stall", "BTB flush", "dir flush", "BTB MPKI"]
    rows = []
    for name in SCHEMES:
        result = results[name]
        stats = result.stats
        coverage = (frontend_stall_coverage(base, result)
                    if name != "baseline" else 0.0)
        rows.append([
            name,
            f"{speedup(base, result):.3f}",
            f"{coverage:.0%}",
            f"{stats.stall_l1i:,.0f}",
            f"{stats.stall_ftq:,.0f}",
            f"{stats.stall_btb_flush:,.0f}",
            f"{stats.stall_dir_flush:,.0f}",
            f"{result.btb_mpki:.1f}",
        ])
    print(format_table(headers, rows))

    print("\nReading the table:")
    print(" * baseline: all stalls exposed; the BTB-flush column is the")
    print("   cost of unpredicted control-flow transfers.")
    print(" * boomerang: BTB flushes vanish (reactive fill) but the FTQ")
    print("   column shows fetch starving while fills resolve.")
    print(" * shotgun: bulk footprint prefetching slashes both the L1-I")
    print("   and FTQ columns — the paper's Figure 6 in miniature.")


if __name__ == "__main__":
    workload_arg = sys.argv[1] if len(sys.argv) > 1 else "oracle"
    blocks_arg = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000
    main(workload_arg, blocks_arg)
