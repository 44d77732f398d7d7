"""Persistent, content-addressed simulation-result cache.

Simulation results are pure functions of (workload, trace length, trace
seed, scheme configuration, microarchitectural parameters, engine
version).  This module hashes that tuple into a content address and
stores the measured :class:`~repro.core.metrics.SimulationResult` as
JSON, so repeated benchmark invocations *across processes* skip
simulation entirely — the in-process memo in :mod:`repro.core.sweep`
only helps within one interpreter.

Layout: ``<cache_dir>/<key[:2]>/<key>.json``, one file per result, with
the key material stored alongside the stats for debuggability.  Writes
are atomic (temp file + ``os.replace``), so concurrent sweep workers
racing on the same cell are harmless — both write identical bytes.

Whether a run uses the cache at all is the
:class:`~repro.core.exec.ExecutionPolicy`'s ``disk_cache`` setting
(``--no-cache``, or ``REPRO_DISK_CACHE=0``): :func:`repro.core.sweep.
run_specs` probes here only when it is on, and hands each dispatched
cell the key it missed under.  ``REPRO_CACHE_DIR`` overrides the cache
directory (default ``~/.cache/repro-sim``).

Two stamps protect against stale entries: ``ENGINE_VERSION`` (a manual
coarse revision, bump on intentional output changes) and an automatic
fingerprint hashing the source of every simulation-affecting module in
the package — so editing engine code invalidates the cache without any
manual step, while unchanged builds keep sharing entries across
processes.

Integrity (DESIGN.md Section 11): every entry is stamped with a
``checksum`` — the SHA-256 of its canonical payload — verified on every
read.  Truncation (full disk, killed writer) and bit rot are detected
instead of served; a corrupt entry is evicted on read so the cell
simply re-simulates, and ``python -m repro cache verify`` audits the
whole cache offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from dataclasses import asdict, fields
from typing import Dict, Optional, Tuple

from repro.config import MicroarchParams, SchemeConfig
from repro.core.metrics import EngineStats, SimulationResult
# repro: allow[RPR002] -- observability registry; reads engine events only
from repro.obs.metrics import counter as _obs_counter

#: Timing-model revision stamp.  Part of every cache key alongside the
#: automatic source fingerprint; bump on intentional output changes.
ENGINE_VERSION = 2

#: Package subtrees whose source does not affect simulation output and
#: is therefore excluded from the fingerprint (reporting/plotting,
#: search orchestration, the execution-backend scheduler — whose
#: backends are bit-identical by construction — and the static
#: analyzer, which only reads source) — plus the observability layer,
#: which may never change engine output by construction.
_FINGERPRINT_EXCLUDE = ("experiments", "explore", os.path.join("core", "exec"),
                        "analysis", "obs")

_fingerprint_cache: Optional[str] = None
_FINGERPRINT_LOCK = threading.Lock()


def engine_fingerprint() -> str:
    """Hash of every simulation-affecting source file in the package.

    Computed once per process.  Any edit to the engine, schemes,
    structures, workload generators or configs yields a different
    fingerprint, so previously cached results miss automatically — no
    manual version bump needed during development.
    """
    global _fingerprint_cache
    with _FINGERPRINT_LOCK:
        if _fingerprint_cache is not None:
            return _fingerprint_cache
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        # The exclusion list is itself key material: moving a subtree
        # into or out of the fingerprint changes which sources can alter
        # engine output, so it must invalidate existing cache entries.
        digest.update(("exclude:" + ",".join(
            sorted(entry.replace(os.sep, "/")
                   for entry in _FINGERPRINT_EXCLUDE))).encode())
        try:
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__"
                    and os.path.relpath(os.path.join(dirpath, d), root)
                    not in _FINGERPRINT_EXCLUDE
                )
                for name in sorted(filenames):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        except OSError:
            # Unreadable sources (zipapp, odd installs): fall back to a
            # constant so the manual ENGINE_VERSION is the only stamp.
            _fingerprint_cache = "unreadable"
            return _fingerprint_cache
        _fingerprint_cache = digest.hexdigest()
        return _fingerprint_cache

_ENV_DIR = "REPRO_CACHE_DIR"

#: Process-local counters (observability, used by tests and benchmarks),
#: now instruments in the :mod:`repro.obs.metrics` registry (``cache.*``).
#: ``cache.corrupt`` counts entries evicted because their bytes failed
#: the checksum (or could not be parsed at all) — every one is also a
#: miss.
_HITS = _obs_counter("cache.hits")
_MISSES = _obs_counter("cache.misses")
_STORES = _obs_counter("cache.stores")
_CORRUPT = _obs_counter("cache.corrupt")

_COUNTERS = (_HITS, _MISSES, _STORES, _CORRUPT)

#: ``EngineStats`` field names in declaration order: an entry's
#: ``stats`` member, read without :func:`dataclasses.asdict`'s walk.
_STAT_FIELDS = tuple(f.name for f in fields(EngineStats))

#: Shard directories this process has created (or found), so a store
#: skips ``os.makedirs``; a prune that removes one is caught at write.
_SHARDS_MADE: set = set()
_SHARDS_LOCK = threading.Lock()


def cache_dir() -> str:
    """Resolved cache directory (not created until first store)."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sim")


def _workload_material(workload: str):
    """Key material identifying a workload's *content*, not just its name.

    The workload registry is pluggable (``repro.workloads.
    register_profile``), so a name alone no longer pins the generated
    program: two builds may register different parameters under the
    same family name, and a re-registered profile must not serve stale
    entries.  The material therefore embeds everything the registered
    profile feeds into trace production — generator knobs, reference
    trace seed, warm-up length and the synthetic L1-D miss rate.
    Unregistered names (unit tests hashing ad-hoc cells) fall back to
    the bare lower-cased name.
    """
    from repro.workloads.profiles import get_profile
    try:
        profile = get_profile(workload)
    except Exception:
        return workload.lower()
    return {
        "name": profile.name,
        "gen_params": asdict(profile.gen_params),
        "trace_seed": profile.trace_seed,
        "warmup_blocks": profile.warmup_blocks,
        "l1d_misses_per_kinstr": profile.l1d_misses_per_kinstr,
    }


#: JSON text of the costly key-material entries (configuration,
#: parameters, workload), by the ``repr`` of the values they come from.
#: A dataclass repr names its class and every field value with its type
#: (``30`` and ``30.0`` differ), so equal reprs give equal JSON.  Cleared
#: when full.
_FRAGMENTS: Dict[str, Dict[str, str]] = {}
_FRAGMENTS_LIMIT = 1024
_FRAGMENTS_LOCK = threading.Lock()


def result_key(workload: str, scheme_name: str, n_blocks: int, seed: int,
               config: SchemeConfig, params: MicroarchParams) -> str:
    """Content address of one simulation cell.

    Every input that can change the simulation's output contributes:
    the workload profile's full content (generator parameters and
    trace-time settings — see :func:`_workload_material`), trace length
    and seed (sampled windows carry their window seed here, so every
    window is cached individually), the full scheme configuration and
    microarchitectural parameter sets (as sorted field dicts, so adding
    a field changes keys only when its value differs from nothing —
    i.e. always, which is the safe direction), the engine version, and
    the automatic source fingerprint.

    The digest covers ``json.dumps(material, sort_keys=True)`` of those
    eight entries.  A sweep keys many cells with the same
    configuration, parameters and workload, so their JSON is memoised
    and the text is assembled around it, byte for byte the same.
    """
    from repro.workloads.profiles import get_profile
    try:
        profile: object = get_profile(workload)
    except Exception:
        profile = workload.lower()
    token = repr((config, params, profile))
    with _FRAGMENTS_LOCK:
        fragments = _FRAGMENTS.get(token)
    if fragments is None:
        material = {
            "config": asdict(config),
            "params": asdict(params),
            "workload": _workload_material(workload),
        }
        fragments = {name: json.dumps(value, sort_keys=True)
                     for name, value in material.items()}
        with _FRAGMENTS_LOCK:
            if len(_FRAGMENTS) >= _FRAGMENTS_LIMIT:
                _FRAGMENTS.clear()
            _FRAGMENTS[token] = fragments
    text = (
        f'{{"config": {fragments["config"]}, '
        f'"engine_fingerprint": {json.dumps(engine_fingerprint())}, '
        f'"engine_version": {json.dumps(ENGINE_VERSION)}, '
        f'"n_blocks": {json.dumps(n_blocks)}, '
        f'"params": {fragments["params"]}, '
        f'"scheme": {json.dumps(scheme_name.lower())}, '
        f'"seed": {json.dumps(seed)}, '
        f'"workload": {fragments["workload"]}}}')
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_key(spec) -> str:
    """Content address of a canonical :class:`RunSpec` cell.

    Delegates to :func:`result_key` with the spec's resolved fields, so
    the key material (and therefore every existing cache entry) is
    identical whether a caller arrives with a RunSpec or the unpacked
    tuple.
    """
    spec = spec.canonical()
    return result_key(spec.workload, spec.scheme, spec.n_blocks,
                      spec.seed, spec.config, spec.params)


def entry_path(key: str) -> str:
    """Filesystem path of *key*'s entry (whether or not it exists)."""
    return os.path.join(cache_dir(), key[:2], key + ".json")


#: Backwards-compatible alias (pre-integrity-layer name).
_entry_path = entry_path


def _payload_checksum(payload: dict) -> str:
    """SHA-256 of the canonical payload, excluding the checksum itself."""
    material = {name: value for name, value in payload.items()
                if name != "checksum"}
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _evict_corrupt(path: str) -> None:
    _CORRUPT.inc()
    try:
        os.unlink(path)
    except OSError:
        pass


def load(key: str) -> Optional[SimulationResult]:
    """Fetch a cached result, or None on miss/corruption.

    A present-but-damaged entry — unparseable bytes (truncation) or a
    checksum mismatch (bit rot) — is *evicted* and counted in
    :data:`corrupt`, so the caller re-simulates and the next store
    replaces it with intact bytes.  Entries written before the checksum
    stamp existed are unreachable from this build anyway (the source
    fingerprint in their keys differs) and are accepted if ever seen.
    """
    path = entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        _MISSES.inc()
        return None
    except (OSError, ValueError):
        _evict_corrupt(path)
        _MISSES.inc()
        return None
    try:
        if not isinstance(payload, dict):
            raise ValueError("entry payload is not an object")
        if "checksum" in payload \
                and payload["checksum"] != _payload_checksum(payload):
            _evict_corrupt(path)
            _MISSES.inc()
            return None
        raw = payload["stats"]
        if set(raw) != set(_STAT_FIELDS):
            # Written by a build with a different stats layout but the
            # same engine version — treat as a miss rather than erroring.
            _MISSES.inc()
            return None
        result = SimulationResult(scheme=payload["scheme"],
                                  stats=EngineStats(**raw))
    except (ValueError, KeyError, TypeError):
        _evict_corrupt(path)
        _MISSES.inc()
        return None
    _HITS.inc()
    return result


def _temp_file(directory: str) -> Tuple[int, str]:
    """A new temporary file in shard *directory*, creating the shard on
    first use (again if a concurrent prune removed it)."""
    if directory not in _SHARDS_MADE:
        os.makedirs(directory, exist_ok=True)
        with _SHARDS_LOCK:
            _SHARDS_MADE.add(directory)
    try:
        return tempfile.mkstemp(dir=directory, suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        return tempfile.mkstemp(dir=directory, suffix=".tmp")


def store(key: str, result: SimulationResult) -> None:
    """Persist *result* under *key* (atomic)."""
    path = entry_path(key)
    try:
        # One serialisation: the checksum digests the canonical text
        # (:func:`_payload_checksum`), and the entry is that text with
        # the checksum appended as a last member.
        stats = result.stats
        text = json.dumps({
            "engine_version": ENGINE_VERSION,
            "scheme": result.scheme,
            "stats": {name: getattr(stats, name) for name in _STAT_FIELDS},
        }, sort_keys=True)
        checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
        fd, tmp_path = _temp_file(os.path.dirname(path))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f'{text[:-1]}, "checksum": "{checksum}"}}')
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError:
        # A read-only or full cache directory must never fail a run.
        return
    _STORES.inc()


def _verify_payload(payload) -> str:
    """Classify one parsed entry payload: ``ok``/``legacy``/``corrupt``."""
    if not isinstance(payload, dict):
        return "corrupt"
    if "checksum" not in payload:
        return "legacy"  # pre-integrity entry: unreachable but harmless
    if payload["checksum"] != _payload_checksum(payload):
        return "corrupt"
    return "ok"


def verify_entry(key: str) -> bool:
    """Whether *key*'s stored bytes are intact.

    True when the entry is absent (there is nothing to distrust, and
    nothing a re-store could repair); False only for a present entry
    whose bytes fail to parse or whose checksum does not match.  This
    is the write-verify hook :func:`~repro.core.sweep.run_cell` uses to
    heal an entry corrupted between store and read.
    """
    path = entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return True
    except (OSError, ValueError):
        return False
    return _verify_payload(payload) != "corrupt"


def verify(fix: bool = False) -> dict:
    """Audit every cache entry's integrity (``cache verify``).

    Returns ``{entries, ok, legacy, corrupt, corrupt_paths, removed}``:
    ``ok`` entries parse and match their checksum, ``legacy`` entries
    predate the checksum stamp (unreachable from this build, but not
    damaged), ``corrupt`` entries fail to parse or fail their checksum.
    With *fix*, corrupt entries are deleted (they would be evicted on
    first read anyway; deleting them makes the audit converge).
    """
    skipped: list = []
    ok = legacy = corrupt_count = 0
    corrupt_paths = []
    removed = 0
    for path, _version, _size, _mtime, payload in _iter_entries(
            skipped=skipped, with_payload=True):
        verdict = "corrupt" if payload is None else _verify_payload(payload)
        if verdict == "ok":
            ok += 1
        elif verdict == "legacy":
            legacy += 1
        else:
            corrupt_count += 1
            corrupt_paths.append(path)
            if fix:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
    return {
        "cache_dir": cache_dir(),
        "entries": ok + legacy + corrupt_count,
        "ok": ok,
        "legacy": legacy,
        "corrupt": corrupt_count,
        "corrupt_paths": sorted(corrupt_paths),
        "removed": removed,
        "skipped": len(skipped),
    }


def _iter_entries(skipped=None, with_payload: bool = False):
    """Yield ``(path, engine_version, size_bytes, mtime[, payload])``.

    ``engine_version`` is the version recorded *inside* the payload
    (entries written by other builds remain readable metadata even
    though their keys are unreachable from this build); unreadable or
    corrupt entries yield ``None`` so callers can treat them as stale.
    Directories that cannot be listed are appended to *skipped* (when
    given) and skipped — one unreadable shard must not abort a whole
    prune or audit.
    """
    root = cache_dir()
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return
    for name in names:
        shard = os.path.join(root, name)
        if not (os.path.isdir(shard) and len(name) == 2):
            continue
        try:
            entries = sorted(os.listdir(shard))
        except OSError:
            if skipped is not None:
                skipped.append(shard)
            continue
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            path = os.path.join(shard, entry)
            payload = None
            try:
                stat = os.stat(path)
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                version = payload.get("engine_version") \
                    if isinstance(payload, dict) else None
            except (OSError, ValueError):
                yield (path, None, 0, 0.0) + \
                    ((None,) if with_payload else ())
                continue
            yield (path, version, stat.st_size, stat.st_mtime) + \
                ((payload,) if with_payload else ())


def stats() -> dict:
    """Aggregate cache statistics, grouped by recorded engine version.

    The cache is content-addressed and append-only, so entries written
    by older engine versions (or corrupt files) accumulate without ever
    being read again; this is the observability half of
    ``python -m repro cache``, :func:`prune` is the reclamation half.
    Version ``None`` groups unreadable/corrupt entries.
    """
    by_version: dict = {}
    entries = 0
    total_bytes = 0
    for _, version, size, _ in _iter_entries():
        bucket = by_version.setdefault(version, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += size
        entries += 1
        total_bytes += size
    probe_hits = _HITS.value
    probe_misses = _MISSES.value
    probes = probe_hits + probe_misses
    return {
        "cache_dir": cache_dir(),
        "engine_version": ENGINE_VERSION,
        "entries": entries,
        "bytes": total_bytes,
        "by_version": by_version,
        "hits": probe_hits,
        "misses": probe_misses,
        "stores": _STORES.value,
        "corrupt": _CORRUPT.value,
        "hit_ratio": (probe_hits / probes) if probes else None,
    }


def prune(days: Optional[float] = None) -> dict:
    """Remove stale cache entries; returns ``{removed, freed_bytes}``.

    Always removes entries recorded under an engine version other than
    the current :data:`ENGINE_VERSION` (including corrupt entries) —
    their keys embed the version, so this build can never read them.
    With *days*, additionally removes entries older than that many days
    (by mtime) regardless of version: same-version entries keyed by an
    old source fingerprint are unreachable too, and age is the only
    signal we have for them.  Run-journal files older than *days* are
    pruned the same way (they only matter while their run might still
    be resumed).  Empty shard directories are cleaned up.

    Unreadable shards and entries that cannot be deleted are *skipped
    and reported* (the ``skipped`` count / ``skipped_paths`` list) —
    one damaged file must not abort the whole prune.
    """
    import time
    # repro: allow[RPR003] -- file-age cutoff only; no result or key material
    cutoff = time.time() - days * 86400.0 if days is not None else None
    removed = 0
    freed = 0
    skipped_paths: list = []
    for path, version, size, mtime in _iter_entries(skipped=skipped_paths):
        stale = version != ENGINE_VERSION
        aged = cutoff is not None and mtime < cutoff
        if not (stale or aged):
            continue
        try:
            os.unlink(path)
        except OSError:
            skipped_paths.append(path)
            continue
        removed += 1
        freed += size
    journals = os.path.join(cache_dir(), "journals")
    if cutoff is not None and os.path.isdir(journals):
        try:
            journal_names = sorted(os.listdir(journals))
        except OSError:
            journal_names = []
            skipped_paths.append(journals)
        for name in journal_names:
            path = os.path.join(journals, name)
            try:
                if os.stat(path).st_mtime >= cutoff:
                    continue
                size = os.stat(path).st_size
                os.unlink(path)
            except OSError:
                skipped_paths.append(path)
                continue
            removed += 1
            freed += size
    root = cache_dir()
    if os.path.isdir(root):
        try:
            shard_names = os.listdir(root)
        except OSError:
            shard_names = []
        for name in shard_names:
            shard = os.path.join(root, name)
            try:
                if os.path.isdir(shard) and len(name) == 2 \
                        and not os.listdir(shard):
                    os.rmdir(shard)
            except OSError:
                pass
    return {"removed": removed, "freed_bytes": freed,
            "skipped": len(skipped_paths),
            "skipped_paths": sorted(skipped_paths)}


def clear() -> int:
    """Delete every cached entry; returns the number of files removed."""
    root = cache_dir()
    removed = 0
    if not os.path.isdir(root):
        return 0
    for name in os.listdir(root):
        shard = os.path.join(root, name)
        if os.path.isdir(shard) and len(name) == 2:
            removed += sum(
                1 for entry in os.listdir(shard) if entry.endswith(".json")
            )
            shutil.rmtree(shard, ignore_errors=True)
    return removed


def reset_counters() -> None:
    """Zero the process-local hit/miss/store/corrupt counters (tests)."""
    for instrument in _COUNTERS:
        instrument.reset()
