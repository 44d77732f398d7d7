"""Shared configuration helpers and spec builders for the experiments."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.config.schemes import (
    REFERENCE_SIZES,
    SchemeConfig,
    ShotgunSizes,
    shotgun_budget_split,
    ubtb_entry_bits,
)
from repro.errors import ExperimentError
from repro.experiments.spec import Cell, GridSpec, RunSpec, SampleSpec
from repro.workloads.profiles import WORKLOAD_NAMES

#: Display names used in tables (paper capitalisation for the Table 2
#: suite, plus the synthetic scenario families).
DISPLAY_NAMES: Dict[str, str] = {
    "nutch": "Nutch",
    "streaming": "Streaming",
    "apache": "Apache",
    "zeus": "Zeus",
    "oracle": "Oracle",
    "db2": "DB2",
    "microservice": "Microservice",
    "jit": "JIT",
    "gc": "GC",
    "kernelio": "KernelIO",
    "flatstream": "FlatStream",
}

#: The spatial-footprint ablation variants of Section 6.3, in paper order.
FOOTPRINT_VARIANTS = (
    "no_bit_vector", "8_bit_vector", "32_bit_vector",
    "entire_region", "5_blocks",
)

FOOTPRINT_LABELS: Dict[str, str] = {
    "no_bit_vector": "No bit vector",
    "8_bit_vector": "8-bit vector",
    "32_bit_vector": "32-bit vector",
    "entire_region": "Entire Region",
    "5_blocks": "5-Blocks",
}


def _round_to_assoc(entries: float, assoc: int = 4) -> int:
    return max(assoc, int(entries) // assoc * assoc)


def footprint_variant_config(variant: str) -> SchemeConfig:
    """Shotgun configuration for one Section 6.3 footprint variant.

    Storage accounting follows the paper: the "No bit vector" design gets
    extra U-BTB entries up to the 8-bit design's storage budget
    (Section 6.3), and the metadata-free "5-Blocks" design likewise; the
    32-bit design keeps the entry count and is simply granted the extra
    vector storage; "Entire Region" stores packed entry/exit offsets in
    place of the bit vectors.
    """
    reference_bits = REFERENCE_SIZES.ubtb_entries * ubtb_entry_bits(8)
    if variant == "8_bit_vector":
        return SchemeConfig(name="shotgun", footprint_mode="bitvector",
                            footprint_bits=8)
    if variant == "32_bit_vector":
        return SchemeConfig(name="shotgun", footprint_mode="bitvector",
                            footprint_bits=32)
    if variant == "entire_region":
        return SchemeConfig(name="shotgun", footprint_mode="entire_region",
                            footprint_bits=0)
    if variant in ("no_bit_vector", "5_blocks"):
        grown_ubtb = _round_to_assoc(reference_bits / ubtb_entry_bits(0))
        sizes = ShotgunSizes(
            ubtb_entries=grown_ubtb,
            cbtb_entries=REFERENCE_SIZES.cbtb_entries,
            rib_entries=REFERENCE_SIZES.rib_entries,
        )
        mode = "none" if variant == "no_bit_vector" else "fixed_blocks"
        return SchemeConfig(name="shotgun", footprint_mode=mode,
                            footprint_bits=0, shotgun_sizes=sizes,
                            fixed_blocks=5)
    raise ExperimentError(f"unknown footprint variant {variant!r}")


def cbtb_variant_config(cbtb_entries: int) -> SchemeConfig:
    """Shotgun configuration with a non-default C-BTB size (Figure 12)."""
    sizes = ShotgunSizes(
        ubtb_entries=REFERENCE_SIZES.ubtb_entries,
        cbtb_entries=cbtb_entries,
        rib_entries=REFERENCE_SIZES.rib_entries,
    )
    return SchemeConfig(name="shotgun", shotgun_sizes=sizes)


#: One column of a workload grid: (column name, scheme, optional config).
Variant = Tuple[str, str, Optional[SchemeConfig]]


def workload_grid(experiment_id: str, title: str,
                  variants: Sequence[Variant],
                  *,
                  metric: str,
                  workloads: Sequence[str] = WORKLOAD_NAMES,
                  baseline: Optional[str] = None,
                  summary: Optional[str] = None,
                  summary_label: str = "",
                  value_format: str = "{:.3f}",
                  notes: str = "",
                  chart_baseline: Optional[float] = None,
                  sample: Optional[SampleSpec] = None) -> GridSpec:
    """Declare the paper's standard figure shape as a :class:`GridSpec`.

    Rows are workloads (paper display names), columns are scheme/config
    *variants*; with *baseline* every cell is paired with that scheme's
    run on the same workload, deduplicated across columns by the sweep
    layer.  ``sample`` switches the grid to SMARTS-style sampled
    measurement (per-cell mean ± 95% CI over independently-seeded
    windows).  Everything else (trace length, parallel fan-out,
    caching) is decided at execution time by
    :func:`~repro.experiments.spec.run_grid_spec`.
    """
    cells = []
    for workload in workloads:
        base = RunSpec(workload=workload, scheme=baseline) \
            if baseline is not None else None
        row = DISPLAY_NAMES.get(workload, workload)
        for column, scheme, config in variants:
            cells.append(Cell(
                row=row, col=column,
                spec=RunSpec(workload=workload, scheme=scheme,
                             config=config),
                baseline=base,
            ))
    return GridSpec(
        experiment_id=experiment_id,
        title=title,
        columns=tuple(column for column, _, _ in variants),
        cells=tuple(cells),
        metric=metric,
        summary=summary,
        summary_label=summary_label,
        value_format=value_format,
        notes=notes,
        chart_baseline=chart_baseline,
        sample=sample,
    )


def budget_configs(boomerang_entries: int) -> Dict[str, SchemeConfig]:
    """Equal-storage Boomerang and Shotgun configurations (Figure 13)."""
    return {
        "boomerang": SchemeConfig(name="boomerang",
                                  btb_entries=boomerang_entries),
        "shotgun": SchemeConfig(
            name="shotgun",
            shotgun_sizes=shotgun_budget_split(boomerang_entries),
        ),
    }


__all__ = [
    "WORKLOAD_NAMES",
    "DISPLAY_NAMES",
    "FOOTPRINT_VARIANTS",
    "FOOTPRINT_LABELS",
    "workload_grid",
    "footprint_variant_config",
    "cbtb_variant_config",
    "budget_configs",
]
