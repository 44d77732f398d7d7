"""Ablation: proactive (predecode) vs reactive-only C-BTB fill.

Section 4.2.3: Shotgun fills the C-BTB proactively by predecoding
prefetched lines, which is what lets a 128-entry C-BTB behave like a much
larger one (Figure 12).  Disabling the proactive path forces every cold
conditional through a Boomerang-style reactive fill, stalling the BPU.
"""

from repro.config import MicroarchParams
from repro.core.frontend import simulate
from repro.core.metrics import speedup
from repro.core.sweep import run_spec
from repro.config.schemes import REFERENCE_SIZES
from repro.experiments.spec import RunSpec
from repro.prefetch.shotgun import ShotgunScheme
from repro.uarch.predecoder import Predecoder
from repro.workloads.profiles import build_program, build_trace, get_profile

WORKLOADS = ("apache", "oracle")


def _run_reactive_only(workload: str, n_blocks: int):
    params = MicroarchParams()
    profile = get_profile(workload)
    generated = build_program(workload)
    trace = build_trace(workload, n_blocks)
    scheme = ShotgunScheme(
        predecoder=Predecoder(generated.program.image),
        sizes=REFERENCE_SIZES,
        proactive_cbtb=False,
    )
    return simulate(trace, scheme, params=params,
                    l1d_misses_per_kinstr=profile.l1d_misses_per_kinstr)


def test_cbtb_fill_ablation(benchmark, bench_blocks):
    def run():
        rows = {}
        for workload in WORKLOADS:
            base = run_spec(RunSpec(workload=workload, scheme="baseline",
                                    n_blocks=bench_blocks))
            proactive = run_spec(RunSpec(workload=workload, scheme="shotgun",
                                         n_blocks=bench_blocks))
            reactive = _run_reactive_only(workload, bench_blocks)
            rows[workload] = (speedup(base, proactive),
                              speedup(base, reactive),
                              reactive.stats.reactive_fills,
                              proactive.stats.reactive_fills)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("C-BTB fill ablation (speedup over baseline):")
    for workload, (pro, rea, rea_fills, pro_fills) in rows.items():
        print(f"  {workload:8s} proactive {pro:.3f} ({pro_fills} fills)  "
              f"reactive-only {rea:.3f} ({rea_fills} fills)")
    for workload, (pro, rea, rea_fills, pro_fills) in rows.items():
        # Proactive fill must win, and it must do so by cutting the
        # number of BPU-stalling reactive fills.
        assert pro > rea, f"{workload}: proactive fill did not help"
        assert pro_fills < rea_fills
