"""Ablation: dedicated RIB vs returns stored in the U-BTB.

Section 4.2.1's argument for the RIB: returns need neither a target (RAS)
nor footprints (stored with the call), so storing them in the U-BTB
wastes >50% of each occupied entry.  At equal storage, the no-RIB design
affords fewer effective U-BTB entries for calls/jumps, reducing footprint
coverage.  This bench compares the two designs at the same storage
budget.
"""

from repro.config import MicroarchParams
from repro.config.schemes import (
    REFERENCE_SIZES,
    ShotgunSizes,
    rib_entry_bits,
    ubtb_entry_bits,
)
from repro.core.frontend import simulate
from repro.core.metrics import speedup
from repro.core.sweep import run_spec
from repro.experiments.spec import RunSpec
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.predecoder import Predecoder
from repro.workloads.profiles import build_program, build_trace, get_profile

WORKLOADS = ("streaming", "db2")


def _no_rib_sizes() -> ShotgunSizes:
    """Fold the RIB's bits into U-BTB entries (returns live there now)."""
    rib_bits = REFERENCE_SIZES.rib_entries * rib_entry_bits()
    extra_entries = rib_bits // ubtb_entry_bits(8)
    total = REFERENCE_SIZES.ubtb_entries + extra_entries
    return ShotgunSizes(ubtb_entries=total // 4 * 4,
                        cbtb_entries=REFERENCE_SIZES.cbtb_entries,
                        rib_entries=4)  # vestigial, unused


def _run_no_rib(workload: str, n_blocks: int):
    params = MicroarchParams()
    profile = get_profile(workload)
    generated = build_program(workload)
    trace = build_trace(workload, n_blocks)
    scheme = ShotgunScheme(
        predecoder=Predecoder(generated.program.image),
        sizes=_no_rib_sizes(),
        use_rib=False,
    )
    return simulate(trace, scheme, params=params,
                    l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr)


def test_rib_ablation(benchmark, bench_blocks):
    def run():
        rows = {}
        for workload in WORKLOADS:
            base = run_spec(RunSpec(workload=workload, scheme="baseline",
                                    n_blocks=bench_blocks))
            with_rib = run_spec(RunSpec(workload=workload, scheme="shotgun",
                                        n_blocks=bench_blocks))
            without = _run_no_rib(workload, bench_blocks)
            rows[workload] = (speedup(base, with_rib),
                              speedup(base, without))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("RIB ablation (speedup over baseline):")
    for workload, (with_rib, without) in rows.items():
        print(f"  {workload:10s} with RIB {with_rib:.3f}   "
              f"returns-in-U-BTB {without:.3f}")
    # Shape: the dedicated RIB never loses, and the suite-wide mean wins.
    mean_with = sum(v[0] for v in rows.values()) / len(rows)
    mean_without = sum(v[1] for v in rows.values()) / len(rows)
    assert mean_with >= mean_without - 0.005
