"""Benchmark: Shotgun vs RDIP (the paper's Section 4.3 discussion).

The paper argues Shotgun dominates RDIP on all three axes: accuracy
(RDIP ignores local control flow), scope (RDIP prefetches only L1-I
blocks, leaving BTB-miss flushes in place) and storage (64KB of dedicated
metadata vs none).  This bench quantifies each claim.
"""

from repro.core.metrics import frontend_stall_coverage, speedup
from repro.core.sweep import run_spec
from repro.experiments.common import DISPLAY_NAMES
from repro.experiments.spec import RunSpec

WORKLOADS = ("apache", "oracle")


def test_shotgun_vs_rdip(benchmark, bench_blocks):
    def run():
        table = {}
        for workload in WORKLOADS:
            results = {
                scheme: run_spec(RunSpec(workload=workload, scheme=scheme,
                                         n_blocks=bench_blocks))
                for scheme in ("baseline", "rdip", "shotgun")
            }
            base = results["baseline"]
            table[workload] = {
                name: (speedup(base, results[name]),
                       frontend_stall_coverage(base, results[name]),
                       results[name].stats.stall_btb_flush)
                for name in ("rdip", "shotgun")
            }
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Shotgun vs RDIP:")
    for workload, rows in table.items():
        for name, (spd, cov, btb_flush) in rows.items():
            print(f"  {DISPLAY_NAMES[workload]:8s} {name:8s} "
                  f"speedup {spd:.3f}  coverage {cov:.2f}  "
                  f"BTB-flush cycles {btb_flush:,.0f}")
    for workload, rows in table.items():
        rdip_spd, rdip_cov, rdip_flush = rows["rdip"]
        shot_spd, shot_cov, shot_flush = rows["shotgun"]
        # Scope: Shotgun prefills BTBs, RDIP leaves BTB flushes in place.
        assert shot_flush == 0.0
        assert rdip_flush > 0.0
        # Effectiveness: Shotgun ahead on speedup and coverage.
        assert shot_spd > rdip_spd
        assert shot_cov > rdip_cov
