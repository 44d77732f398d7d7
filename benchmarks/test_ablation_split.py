"""Ablation: how the U-BTB/C-BTB/RIB storage split affects Shotgun.

The paper picks 1.5K/128/512 at the 2K-conventional budget (Section 5.2).
This bench compares that split against two same-budget alternatives —
"fat C-BTB" (fewer U-BTB entries, 1K-entry C-BTB) and "fat RIB" — and
checks the paper's choice is at (or within noise of) the optimum,
confirming that devoting the bulk of the budget to unconditional branches
and their footprints is the right call.
"""

from repro.config import MicroarchParams
from repro.config.schemes import (
    ShotgunSizes,
    cbtb_entry_bits,
    rib_entry_bits,
    shotgun_storage_bits,
    ubtb_entry_bits,
)
from repro.core.frontend import simulate
from repro.core.metrics import geometric_mean, speedup
from repro.core.sweep import run_spec
from repro.experiments.spec import RunSpec
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.predecoder import Predecoder
from repro.workloads.profiles import build_program, build_trace, get_profile

WORKLOADS = ("streaming", "oracle")

#: Reference bit budget (the paper's 23.77KB).
_BUDGET_BITS = shotgun_storage_bits(
    ShotgunSizes(ubtb_entries=1536, cbtb_entries=128, rib_entries=512), 8
)


def _fit_ubtb(cbtb: int, rib: int) -> ShotgunSizes:
    """Largest U-BTB that keeps the alternative split on budget."""
    remaining = _BUDGET_BITS - cbtb * cbtb_entry_bits() \
        - rib * rib_entry_bits()
    ubtb = remaining // ubtb_entry_bits(8) // 4 * 4
    return ShotgunSizes(ubtb_entries=int(ubtb), cbtb_entries=cbtb,
                        rib_entries=rib)


SPLITS = {
    "paper (1.5K/128/512)": ShotgunSizes(1536, 128, 512),
    "fat C-BTB (1K entries)": _fit_ubtb(cbtb=1024, rib=512),
    "fat RIB (2K entries)": _fit_ubtb(cbtb=128, rib=2048),
}


def _run_split(workload: str, sizes: ShotgunSizes, n_blocks: int):
    params = MicroarchParams()
    profile = get_profile(workload)
    generated = build_program(workload)
    trace = build_trace(workload, n_blocks)
    scheme = ShotgunScheme(
        predecoder=Predecoder(generated.program.image), sizes=sizes,
    )
    return simulate(trace, scheme, params=params,
                    l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr)


def test_storage_split_ablation(benchmark, bench_blocks):
    def run():
        table = {}
        for label, sizes in SPLITS.items():
            speedups = []
            for workload in WORKLOADS:
                base = run_spec(RunSpec(workload=workload,
                                        scheme="baseline",
                                        n_blocks=bench_blocks))
                result = _run_split(workload, sizes, bench_blocks)
                speedups.append(speedup(base, result))
            table[label] = geometric_mean(speedups)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Storage-split ablation (gmean speedup over baseline):")
    for label, value in table.items():
        sizes = SPLITS[label]
        print(f"  {label:24s} U/C/R={sizes.ubtb_entries}"
              f"/{sizes.cbtb_entries}/{sizes.rib_entries}: {value:.3f}")
    paper = table["paper (1.5K/128/512)"]
    # Shape: the paper's split is competitive (within a few percent of
    # the best same-budget alternative) and beats the fat-RIB split.  In
    # this reproduction the fat-C-BTB split is marginally ahead because
    # the synthetic unconditional working sets are smaller than the
    # paper's (see EXPERIMENTS.md); the qualitative conclusion — spend
    # the budget on U-BTB+footprints rather than on the RIB — holds.
    best = max(table.values())
    assert paper >= best - 0.03
    assert paper >= table["fat RIB (2K entries)"] - 0.01
