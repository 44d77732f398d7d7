"""Property-based tests: RunSpec canonicalisation and cache-key stability.

The whole caching stack — the in-process memo, the persistent disk
cache and the run journal — keys off two invariants:

* **Canonicalisation is a congruence**: any two :class:`RunSpec` values
  describing the same simulation canonicalise to *equal* specs and
  therefore to equal ``diskcache.spec_key``/``result_key`` content
  addresses, however they were spelled (case, defaulted fields,
  dict round trips).
* **Keys are injective over content**: perturbing any field that can
  change simulation output — trace length, seed, any scheme-config or
  microarchitectural parameter — must produce a *different* key, or a
  stale cache entry would silently serve wrong results.

Hypothesis explores the cross product of workloads × schemes × lengths
× seeds × field perturbations far more densely than example-based
tests could.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import MicroarchParams, SchemeConfig
from repro.config.schemes import ShotgunSizes
from repro.core import diskcache
from repro.experiments.spec import RunSpec

#: Registered Table 2 workloads, in assorted spellings — workload names
#: are case-insensitive everywhere downstream.
WORKLOADS = ("nutch", "Streaming", "APACHE", "zeus", "Oracle", "db2")

SCHEMES = ("baseline", "FDIP", "rdip", "Confluence", "boomerang",
           "SHOTGUN", "ideal")

#: Valid alternative values per SchemeConfig field (every entry differs
#: from the dataclass default, and every value passes validation).
CONFIG_PERTURBATIONS = {
    "btb_entries": (512, 1024, 4096),
    "shotgun_sizes": (
        ShotgunSizes(ubtb_entries=768, cbtb_entries=64, rib_entries=256),
        ShotgunSizes(ubtb_entries=3072, cbtb_entries=256, rib_entries=1024),
    ),
    "footprint_mode": ("none", "entire_region", "fixed_blocks"),
    "footprint_bits": (0, 16, 32, 64),
    "fixed_blocks": (3, 7),
    "confluence_history_entries": (16 * 1024, 64 * 1024),
    "confluence_index_entries": (4 * 1024, 16 * 1024),
    "confluence_stream_lookahead": (4, 24),
    "confluence_metadata_contention": (1.25, 2.0),
}

#: Valid alternative values per MicroarchParams field.
PARAMS_PERTURBATIONS = {
    "issue_width": (2, 4),
    "fetch_width": (4, 8),
    "l1i_latency": (1, 3),
    "llc_latency": (20, 40),
    "memory_latency": (60, 120),
    "flush_penalty": (10, 20),
    "predecode_latency": (2, 4),
    "l1i_bytes": (16 * 1024, 64 * 1024),
    "l1i_prefetch_buffer": (32, 128),
    "ftq_size": (16, 64),
    "btb_prefetch_buffer": (16, 64),
    "ras_size": (16, 64),
    "btb_entries": (1024, 4096),
    "btb_assoc": (2, 8),
    "tage_budget_bytes": (4 * 1024, 16 * 1024),
    "l1d_stall_exposure": (0.2, 0.5),
}


@st.composite
def run_specs(draw) -> RunSpec:
    """An arbitrary (possibly partially-defaulted) RunSpec."""
    config = None
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(CONFIG_PERTURBATIONS)))
        value = draw(st.sampled_from(CONFIG_PERTURBATIONS[field]))
        config = replace(SchemeConfig(), **{field: value})
    params = None
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(PARAMS_PERTURBATIONS)))
        value = draw(st.sampled_from(PARAMS_PERTURBATIONS[field]))
        params = MicroarchParams().with_overrides(**{field: value})
    return RunSpec(
        workload=draw(st.sampled_from(WORKLOADS)),
        scheme=draw(st.sampled_from(SCHEMES)),
        config=config,
        params=params,
        n_blocks=draw(st.one_of(st.none(),
                                st.integers(min_value=100,
                                            max_value=200_000))),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@settings(deadline=None)
@given(spec=run_specs())
def test_canonical_is_idempotent(spec):
    canonical = spec.canonical()
    assert canonical.canonical() == canonical
    assert hash(canonical.canonical()) == hash(canonical)


@settings(deadline=None)
@given(spec=run_specs())
def test_spelling_variants_share_one_key(spec):
    """Case and defaulting must not split cache identity."""
    respelled = replace(spec, workload=spec.workload.upper(),
                        scheme=spec.scheme.capitalize())
    assert respelled.canonical() == spec.canonical()
    assert diskcache.spec_key(respelled) == diskcache.spec_key(spec)


@settings(deadline=None)
@given(spec=run_specs())
def test_equal_specs_have_equal_keys(spec):
    """spec_key is a pure function of content, stable across calls and
    across the dict round trip used by sweep files and space files."""
    clone = replace(spec)
    assert diskcache.spec_key(clone) == diskcache.spec_key(spec)
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt.canonical() == spec.canonical()
    assert diskcache.spec_key(rebuilt) == diskcache.spec_key(spec)


@settings(deadline=None)
@given(spec=run_specs(),
       n_blocks=st.integers(min_value=100, max_value=200_000),
       seed=st.integers(min_value=0, max_value=10_000))
def test_length_and_seed_perturbations_change_the_key(spec, n_blocks,
                                                      seed):
    canonical = spec.canonical()
    key = diskcache.spec_key(canonical)
    if n_blocks != canonical.n_blocks:
        assert diskcache.spec_key(
            replace(canonical, n_blocks=n_blocks)) != key
    if seed != canonical.seed:
        assert diskcache.spec_key(replace(canonical, seed=seed)) != key


@settings(deadline=None)
@given(spec=run_specs(), data=st.data())
def test_any_config_field_perturbation_changes_the_key(spec, data):
    canonical = spec.canonical()
    key = diskcache.spec_key(canonical)
    field = data.draw(st.sampled_from(sorted(CONFIG_PERTURBATIONS)))
    value = data.draw(st.sampled_from(CONFIG_PERTURBATIONS[field]))
    if getattr(canonical.config, field) == value:
        return  # drew the value the spec already has: no perturbation
    perturbed = replace(canonical,
                        config=replace(canonical.config, **{field: value}))
    assert diskcache.spec_key(perturbed) != key


@settings(deadline=None)
@given(spec=run_specs(), data=st.data())
def test_any_params_field_perturbation_changes_the_key(spec, data):
    canonical = spec.canonical()
    key = diskcache.spec_key(canonical)
    field = data.draw(st.sampled_from(sorted(PARAMS_PERTURBATIONS)))
    value = data.draw(st.sampled_from(PARAMS_PERTURBATIONS[field]))
    if getattr(canonical.params, field) == value:
        return
    perturbed = replace(
        canonical,
        params=canonical.params.with_overrides(**{field: value}))
    assert diskcache.spec_key(perturbed) != key


def test_perturbation_tables_cover_every_field():
    """A new config/params field must add a perturbation entry here,
    which is what keeps the injectivity property exhaustive."""
    from dataclasses import fields
    config_fields = {f.name for f in fields(SchemeConfig)} - {"name"}
    assert config_fields == set(CONFIG_PERTURBATIONS), (
        "SchemeConfig fields changed; update CONFIG_PERTURBATIONS"
    )
    params_fields = {f.name for f in fields(MicroarchParams)}
    missing = params_fields - set(PARAMS_PERTURBATIONS)
    # Geometry fields with interlocking validators are exercised via
    # l1i_bytes; anything else must be covered.
    allowed_gaps = {"l1i_assoc", "line_bytes", "llc_bytes", "llc_assoc"}
    assert missing <= allowed_gaps, (
        f"MicroarchParams fields without perturbation coverage: "
        f"{sorted(missing - allowed_gaps)}"
    )


def _key_from_scratch(spec: RunSpec) -> str:
    """The cell key as one ``json.dumps`` of the whole material dict,
    with nothing memoised: what ``result_key`` digests."""
    import hashlib
    import json
    from dataclasses import asdict
    spec = spec.canonical()
    material = {
        "engine_version": diskcache.ENGINE_VERSION,
        "engine_fingerprint": diskcache.engine_fingerprint(),
        "workload": diskcache._workload_material(spec.workload),
        "scheme": spec.scheme.lower(),
        "n_blocks": spec.n_blocks,
        "seed": spec.seed,
        "config": asdict(spec.config),
        "params": asdict(spec.params),
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")).hexdigest()


@settings(deadline=None, max_examples=60)
@given(spec=run_specs(), float_latency=st.booleans())
def test_memoised_key_equals_the_key_from_scratch(spec, float_latency):
    """``spec_key`` memoises the configuration, parameter and workload
    JSON; the key stays byte for byte the one-shot key, also when an
    equal parameter set differs in a value's type (30 vs 30.0)."""
    if float_latency:
        params = spec.canonical().params
        spec = replace(spec, params=replace(
            params, llc_latency=float(params.llc_latency)))
    assert diskcache.spec_key(spec) == _key_from_scratch(spec)
    assert diskcache.spec_key(spec) == _key_from_scratch(spec)
