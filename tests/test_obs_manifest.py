"""Tests for run-manifest accounting: reconciliation across backends,
worker span shipping, fault-injected counts, fingerprint neutrality."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core import diskcache
from repro.core.exec.faults import FaultPlan, FaultRule
from repro.core.sweep import clear_result_cache, run_specs
from repro.experiments.spec import RunSpec
from repro.obs import export, metrics, tracing


#: Small, fast cells shared by the accounting matrix.
CELLS = tuple(
    RunSpec(workload=workload, scheme=scheme, n_blocks=blocks)
    for workload, scheme, blocks in (
        ("nutch", "baseline", 400),
        ("nutch", "ideal", 400),
        ("streaming", "baseline", 600),
        ("streaming", "ideal", 600),
    )
)


def _fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_BACKOFF_BASE", "0.01")
    clear_result_cache()


def _counts(delta):
    counters = delta.get("counters", {})
    return {
        "cells": counters.get("sweep.cells", 0),
        "simulated": counters.get("sweep.simulations", 0),
        "cached": counters.get("sweep.cached_cells", 0),
        "quarantined": counters.get("sweep.quarantines", 0),
    }


def _run_with_delta(**kwargs):
    before = metrics.snapshot()
    results = run_specs(CELLS, **kwargs)
    return results, metrics.delta(before, metrics.snapshot())


class TestReconciliation:
    """simulated + cached + quarantined == total cells, every backend,
    cold and warm cache — the manifest invariant, from independently
    incremented counters."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_cold_then_warm(self, backend, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        results, cold = _run_with_delta(backend=backend, max_workers=2)
        assert len(results) == len(CELLS)
        counts = _counts(cold)
        assert counts["cells"] == len(CELLS)
        assert counts["simulated"] == len(CELLS)
        assert counts["cached"] == 0
        assert counts["simulated"] + counts["cached"] \
            + counts["quarantined"] == counts["cells"]

        clear_result_cache()  # drop the memo; disk cache stays warm
        results, warm = _run_with_delta(backend=backend, max_workers=2)
        assert len(results) == len(CELLS)
        counts = _counts(warm)
        assert counts["cells"] == len(CELLS)
        assert counts["simulated"] == 0
        assert counts["cached"] == len(CELLS)
        assert counts["simulated"] + counts["cached"] \
            + counts["quarantined"] == counts["cells"]

    def test_process_ships_store_counters_home(self, tmp_path,
                                               monkeypatch):
        _fresh(tmp_path, monkeypatch)
        _, delta = _run_with_delta(backend="process", max_workers=2)
        counters = delta["counters"]
        # Stores happen in the workers; the parent absorbs them.
        assert counters.get("cache.stores", 0) == len(CELLS)
        # Probe misses were counted in the parent once per cell — the
        # workers' own re-probe misses must not double them.
        assert counters.get("cache.misses", 0) == len(CELLS)


class TestEngineAccounting:
    """Per-cell engine selection counters reach the manifest — columnar
    cells and per-scheme fallbacks — from every backend's workers.  The
    engine is set by the policy alone: workers see neither the parent's
    policy nor an environment setting, so the counts show that each
    unit carried it."""

    MIXED = CELLS + (RunSpec(workload="nutch", scheme="fdip",
                             n_blocks=400),)

    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("thread", 2), ("process", 2)])
    def test_columnar_cells_and_fallbacks_counted(
            self, backend, workers, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        before = metrics.snapshot()
        results = run_specs(self.MIXED, backend=backend,
                            max_workers=workers, engine="columnar")
        delta = metrics.delta(before, metrics.snapshot())
        assert len(results) == len(self.MIXED)
        report = export.build_report("rid", "label", "sweep", delta,
                                     spans=[], elapsed=0.0)
        assert report.engine is not None
        assert report.engine["requested"] == "columnar"
        assert report.engine["columnar_cells"] == len(CELLS)
        assert report.engine["fallback_cells"] == 1
        assert report.engine["fallbacks_by_scheme"] == {"fdip": 1}
        assert "core:" in report.render()
        assert report.to_json()["engine"] == report.engine

    def test_interpreter_runs_have_no_engine_section(self, tmp_path,
                                                     monkeypatch):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        _, delta = _run_with_delta(backend="serial")
        report = export.build_report("rid", "label", "sweep", delta,
                                     spans=[], elapsed=0.0)
        assert report.engine is None
        assert report.to_json()["engine"] is None


class TestSpanShipping:
    def test_process_worker_spans_nest_under_execute(self, tmp_path,
                                                     monkeypatch):
        _fresh(tmp_path, monkeypatch)
        tracing.reset()
        with tracing.enable():
            run_specs(CELLS, backend="process", max_workers=2)
        spans = tracing.drain()
        by_id = {s["span_id"]: s for s in spans}
        execute = [s for s in spans if s["name"] == "execute"]
        assert len(execute) == 1
        simulate = [s for s in spans if s["name"] == "simulate"]
        assert len(simulate) == len(CELLS)
        parent_pid = os.getpid()
        worker_spans = [s for s in simulate if s["pid"] != parent_pid]
        assert worker_spans, "no spans crossed the process boundary"
        # Every simulate span reaches the execute span through parents.
        for span in simulate:
            node = span
            seen = set()
            while node["parent_id"] is not None \
                    and node["span_id"] not in seen:
                seen.add(node["span_id"])
                node = by_id[node["parent_id"]]
            assert node["span_id"] == execute[0]["span_id"]

    def test_serial_spans_nest_without_shipping(self, tmp_path,
                                                monkeypatch):
        _fresh(tmp_path, monkeypatch)
        tracing.reset()
        with tracing.enable():
            run_specs(CELLS, backend="serial")
        spans = tracing.drain()
        names = [s["name"] for s in spans]
        assert names.count("simulate") == len(CELLS)
        assert "execute" in names and "cache_probe" in names
        assert all(s["pid"] == os.getpid() for s in spans)

    def test_no_spans_when_disabled(self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        tracing.reset()
        run_specs(CELLS[:2], backend="serial")
        assert tracing.records() == []


class TestFaultAccounting:
    def test_injected_retries_and_quarantines_are_counted(
            self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[0]
        plan = FaultPlan(
            rules=(FaultRule(kind="raise", workload=poison.workload,
                             scheme=poison.scheme,
                             n_blocks=poison.n_blocks,
                             seed=poison.seed, times=None),),
            state_dir=str(tmp_path / "faults"))
        before = metrics.snapshot()
        results = run_specs(CELLS, backend="serial", faults=plan,
                            retries=2, on_error="skip")
        delta = metrics.delta(before, metrics.snapshot())
        counters = delta["counters"]
        assert len(results) == len(CELLS) - 1
        # The unit holding the poison cell is retried exactly twice
        # (the budget), then the cell is quarantined.
        assert counters.get("supervisor.retries", 0) == 2
        assert counters.get("supervisor.quarantines", 0) == 1
        counts = _counts(delta)
        assert counts["quarantined"] == 1
        assert counts["simulated"] + counts["cached"] \
            + counts["quarantined"] == counts["cells"]

    def test_failure_report_lands_in_manifest(self, tmp_path,
                                              monkeypatch):
        from repro.core import sweep
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[1]
        plan = FaultPlan(
            rules=(FaultRule(kind="raise", workload=poison.workload,
                             scheme=poison.scheme,
                             n_blocks=poison.n_blocks,
                             seed=poison.seed, times=None),),
            state_dir=str(tmp_path / "faults"))
        before = metrics.snapshot()
        run_specs(CELLS, backend="serial", faults=plan,
                  retries=0, on_error="skip")
        delta = metrics.delta(before, metrics.snapshot())
        report = export.build_report(
            run_id="test", label="test", command="test", delta=delta,
            spans=[], elapsed=0.1, failures=sweep.last_failures)
        assert report.failures is not None
        assert report.failures["quarantined"] == 1
        assert report.failures["cells"][0]["spec"] \
            == f"{poison.workload}/{poison.scheme}"
        payload = report.to_json()
        assert payload["kind"] == "manifest"
        assert payload["counts"]["quarantined"] == 1


class TestBitIdentity:
    def test_results_identical_with_and_without_telemetry(
            self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        plain = run_specs(CELLS, backend="serial", use_cache=False)
        tracing.reset()
        with tracing.enable():
            traced = run_specs(CELLS, backend="serial", use_cache=False)
        tracing.reset()
        for spec in plain:
            assert plain[spec].stats == traced[spec].stats


class TestFingerprintNeutrality:
    def test_obs_is_excluded_from_the_fingerprint(self):
        assert "obs" in diskcache._FINGERPRINT_EXCLUDE

    def test_editing_obs_does_not_change_the_fingerprint(
            self, tmp_path, monkeypatch):
        import repro
        source_root = os.path.dirname(os.path.abspath(repro.__file__))
        copy_root = str(tmp_path / "repro")
        shutil.copytree(source_root, copy_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__",
                            os.path.join(copy_root, "__init__.py"))
        monkeypatch.setattr(diskcache, "_fingerprint_cache", None)
        baseline = diskcache.engine_fingerprint()

        with open(os.path.join(copy_root, "obs", "metrics.py"), "a",
                  encoding="utf-8") as handle:
            handle.write("\n# an observability-only edit\n")
        monkeypatch.setattr(diskcache, "_fingerprint_cache", None)
        assert diskcache.engine_fingerprint() == baseline

        with open(os.path.join(copy_root, "core", "sweep.py"), "a",
                  encoding="utf-8") as handle:
            handle.write("\n# an engine-layer edit\n")
        monkeypatch.setattr(diskcache, "_fingerprint_cache", None)
        assert diskcache.engine_fingerprint() != baseline
