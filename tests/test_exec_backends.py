"""Tests for the execution-backend layer: backends, chunking, journal,
progress, interrupt/resume, and the no-executor-when-cached guarantee."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import diskcache
from repro.core.exec import (
    BACKENDS,
    RunJournal,
    SerialBackend,
    ThreadBackend,
    WorkUnit,
    chunk_specs,
    get_backend,
    invocation_id,
    spec_cost,
)
from repro.core.sweep import clear_result_cache, run_specs, \
    simulation_meter
from repro.errors import ReproError
from repro.experiments.spec import RunSpec, SampleSpec


def _fresh(tmp_path, monkeypatch):
    """Point the disk cache at an empty directory and drop the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_cache()


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

class TestChunking:
    def specs(self, blocks):
        return [RunSpec(workload="nutch", scheme="baseline",
                        n_blocks=b, seed=i)
                for i, b in enumerate(blocks)]

    def test_covers_every_spec_exactly_once(self):
        specs = self.specs([4000, 1000, 2000, 8000, 500, 500])
        units = chunk_specs(specs, max_workers=2)
        chunked = [spec for unit in units for spec in unit.specs]
        assert sorted(chunked, key=lambda s: s.seed) \
            == sorted(specs, key=lambda s: s.seed)

    def test_units_ordered_longest_first(self):
        specs = self.specs([100, 9000, 300, 8000, 200])
        units = chunk_specs(specs, max_workers=4)
        costs = [unit.cost for unit in units]
        assert costs == sorted(costs, reverse=True)

    def test_costly_cells_get_singleton_units(self):
        specs = self.specs([100_000, 100, 100, 100])
        units = chunk_specs(specs, max_workers=2)
        assert units[0].specs == (specs[0],)
        assert units[0].cost == 100_000

    def test_deterministic(self):
        specs = self.specs([700, 700, 1400, 2100, 350])
        assert chunk_specs(specs, max_workers=3) \
            == chunk_specs(specs, max_workers=3)

    def test_empty(self):
        assert chunk_specs([], max_workers=4) == []

    def test_spec_cost_is_trace_length(self):
        assert spec_cost(RunSpec(workload="nutch", scheme="baseline",
                                 n_blocks=1234)) == 1234
        assert spec_cost(RunSpec(workload="nutch", scheme="baseline")) == 1

    def test_heterogeneous_costs_do_not_shatter(self):
        """Regression: the unit-cost floor is the median cell, not the
        cheapest.  With a min-cost floor, two 100k-block cells next to
        two 7-block cells made the target 7 and every cell a singleton
        (4 units); the median floor packs the cheap tail together."""
        specs = self.specs([100_000, 100_000, 7, 7])
        units = chunk_specs(specs, max_workers=8)
        assert len(units) == 3
        assert sorted(len(unit.specs) for unit in units) == [1, 1, 2]

    def test_each_workload_in_one_unit(self):
        """Program affinity: a 6-workload x 4-scheme sweep on 2 workers
        gives every workload's cells one unit, so each program (and its
        binary image) is built by one worker only."""
        workloads = ("nutch", "streaming", "apache", "zeus", "oracle",
                     "db2")
        specs = [RunSpec(workload=workload, scheme=scheme, n_blocks=4000)
                 for workload in workloads
                 for scheme in ("baseline", "confluence", "boomerang",
                                "shotgun")]
        units = chunk_specs(specs, max_workers=2)
        for workload in workloads:
            holding = [unit for unit in units
                       if any(s.workload == workload for s in unit.specs)]
            assert len(holding) == 1
            assert sum(s.workload == workload
                       for s in holding[0].specs) == 4

    def test_split_group_cuts_between_traces(self):
        """Cells of one trace stay adjacent, so a split group's pieces
        each replay their own traces (a sampled grid lists its cells
        scheme-major) and no trace is built by two workers."""
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=1000,
                         seed=seed)
                 for scheme in ("baseline", "shotgun", "ideal")
                 for seed in (1, 2)]
        units = chunk_specs(specs, max_workers=1)
        assert sorted([spec.seed for spec in unit.specs]
                      for unit in units) == [[1, 1, 1], [2, 2, 2]]

    def test_single_workload_sweep_uses_every_worker(self):
        """A group costlier than half a worker's share is split, so a
        1-workload x 6-scheme sweep gives each of 2 workers at least
        two units to balance."""
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=4000)
                 for scheme in ("baseline", "fdip", "confluence",
                                "boomerang", "shotgun", "ideal")]
        units = chunk_specs(specs, max_workers=2)
        assert len(units) >= 4
        assert max(unit.cost for unit in units) <= 6_000

    def test_few_large_groups_split_for_more_workers(self):
        """Six workload groups on 4 workers are cut into pieces of at
        most half a worker's share, so no worker is left with two whole
        groups while another idles."""
        workloads = ("nutch", "streaming", "apache", "zeus", "oracle",
                     "db2")
        specs = [RunSpec(workload=workload, scheme=scheme, n_blocks=4000)
                 for workload in workloads
                 for scheme in ("baseline", "confluence", "boomerang",
                                "shotgun")]
        units = chunk_specs(specs, max_workers=4)
        assert len(units) >= 8
        assert max(unit.cost for unit in units) <= 12_000

    @given(cells=st.lists(
               st.tuples(st.integers(min_value=1, max_value=200_000),
                         st.sampled_from(("nutch", "streaming", "apache",
                                          "zeus"))),
               min_size=1, max_size=60),
           max_workers=st.integers(min_value=1, max_value=16),
           units_per_worker=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_unit_count_bounded_and_exact(self, cells, max_workers,
                                          units_per_worker):
        """Every spec lands in exactly one unit, deterministically, and
        the unit count never exceeds ``min(n, 4 * slots + 2)`` — every
        unit the greedy pass closes costs more than half the target, so
        heterogeneity cannot shatter the sweep into per-cell tasks."""
        specs = [RunSpec(workload=workload, scheme="baseline",
                         n_blocks=blocks, seed=i)
                 for i, (blocks, workload) in enumerate(cells)]
        units = chunk_specs(specs, max_workers,
                            units_per_worker=units_per_worker)
        chunked = [spec for unit in units for spec in unit.specs]
        assert sorted(chunked, key=lambda s: s.seed) \
            == sorted(specs, key=lambda s: s.seed)
        assert units == chunk_specs(specs, max_workers,
                                    units_per_worker=units_per_worker)
        slots = max_workers * units_per_worker
        assert len(units) <= min(len(specs), 4 * slots + 2)


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

class TestBackendRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "thread", "process"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            get_backend("gpu")

    def test_worker_floor(self):
        with pytest.raises(ReproError):
            SerialBackend(max_workers=0)


class TestSingleWorkerCollapse:
    """A one-worker pool backend is pure overhead: the same units run
    in the same order through the same per-unit path, but with pool
    construction, pickling and IPC on top (measured ~15% slower than
    serial on a 1-core machine).  ``get_backend`` collapses it."""

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_one_worker_pool_collapses_to_serial(self, name):
        backend = get_backend(name, max_workers=1)
        assert isinstance(backend, SerialBackend)
        assert backend.max_workers == 1

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_multi_worker_pool_not_collapsed(self, name):
        backend = get_backend(name, max_workers=2)
        assert type(backend) is BACKENDS[name]

    def test_single_worker_run_builds_no_pool(self, tmp_path,
                                              monkeypatch):
        """End to end: a 1-worker pool sweep must never touch
        concurrent.futures, and still simulates every cell."""
        _fresh(tmp_path, monkeypatch)
        for attr in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            monkeypatch.setattr(
                f"repro.core.exec.backends.{attr}",
                lambda *a, **k: (_ for _ in ()).throw(
                    AssertionError("no pool may be built for 1 worker")))
        specs = [RunSpec(workload="nutch", scheme="baseline",
                         n_blocks=400, seed=i) for i in range(3)]
        for backend in ("thread", "process"):
            clear_result_cache()
            results = run_specs(specs, backend=backend, max_workers=1)
            assert len(results) == 3
        clear_result_cache()


class TestPicklabilityGuard:
    """Un-picklable work must fail fast with a clear error naming the
    cell, not a raw PicklingError from inside concurrent.futures."""

    def _unpicklable_specs(self):
        from dataclasses import dataclass

        from repro.config import SchemeConfig

        @dataclass(frozen=True)
        class LocalConfig(SchemeConfig):  # class defined in a function:
            pass                          # pickle cannot look it up

        # Two specs so a two-worker process backend is actually chosen
        # (a single-worker "pool" collapses to the serial backend,
        # which needs no pickling).
        return [RunSpec(workload="nutch", scheme="shotgun", n_blocks=400,
                        config=LocalConfig()),
                RunSpec(workload="nutch", scheme="shotgun", n_blocks=500,
                        config=LocalConfig())]

    def test_process_backend_fails_fast_before_spawning(self, tmp_path,
                                                        monkeypatch):
        _fresh(tmp_path, monkeypatch)
        specs = self._unpicklable_specs()
        monkeypatch.setattr(
            "repro.core.exec.backends.ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("pool must not be built for bad work")))
        with pytest.raises(ReproError, match="nutch/shotgun"):
            run_specs(specs, backend="process", max_workers=2)
        clear_result_cache()

    def test_error_suggests_thread_or_serial(self, tmp_path,
                                             monkeypatch):
        _fresh(tmp_path, monkeypatch)
        specs = self._unpicklable_specs()
        with pytest.raises(ReproError,
                           match="--backend thread/serial"):
            run_specs(specs, backend="process", max_workers=2)
        # The same work runs fine where no pipe is involved.
        results = run_specs(specs, backend="serial")
        assert len(results) == 2
        clear_result_cache()


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

class TestRunJournal:
    def test_round_trip(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=3)
        journal.record("aaa", "simulated")
        journal.record("bbb", "cached")
        assert not journal.finished
        journal.finish(simulated=1, cached=1)
        reread = RunJournal(journal.path)
        assert reread.completed == {"aaa", "bbb"}
        assert reread.finished
        assert reread.total == 3

    def test_duplicate_keys_recorded_once(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=1)
        journal.record("aaa", "simulated")
        journal.record("aaa", "cached")
        with open(journal.path, "r", encoding="utf-8") as handle:
            cells = [json.loads(line) for line in handle
                     if json.loads(line)["kind"] == "cell"]
        assert len(cells) == 1

    def test_truncated_trailing_line_ignored(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        journal.record("aaa", "simulated")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "key": "bb')  # crash mid-write
        reread = RunJournal(journal.path)
        assert reread.completed == {"aaa"}
        assert not reread.finished

    def test_reset_discards(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=1)
        journal.record("aaa", "simulated")
        journal.reset()
        assert not journal.exists()
        assert RunJournal(journal.path).completed == set()

    def test_invocation_id_ignores_dict_order_not_content(self):
        assert invocation_id({"a": 1, "b": 2}) \
            == invocation_id({"b": 2, "a": 1})
        assert invocation_id({"a": 1}) != invocation_id({"a": 2})


# ---------------------------------------------------------------------------
# run_specs through the backends
# ---------------------------------------------------------------------------

SAMPLED_CELL = SampleSpec(n_windows=3).window_specs(
    RunSpec(workload="nutch", scheme="shotgun"), 1500)

EXPLORE_KWARGS = dict(strategy="random", objectives=("speedup",
                                                     "storage_bits"),
                      budget=6, n_blocks=1500, seed=7)


class TestBackendEquivalence:
    def test_sampled_frontier_cell_bit_identical(self, tmp_path,
                                                 monkeypatch):
        """Serial, thread and process runs of a sampled cell's windows
        produce byte-identical stats from cold caches."""
        reference = None
        for backend in ("serial", "thread", "process"):
            _fresh(tmp_path / backend, monkeypatch)
            results = run_specs(SAMPLED_CELL, backend=backend,
                                max_workers=2)
            stats = [results[spec.canonical()].stats
                     for spec in SAMPLED_CELL]
            if reference is None:
                reference = stats
            else:
                assert stats == reference, backend
        clear_result_cache()

    def test_explore_invocation_bit_identical(self, tmp_path,
                                              monkeypatch):
        """A whole explore run — points, order, JSONL bytes — is
        backend-independent from cold caches."""
        from repro.explore.report import explore
        from repro.explore.space import get_space
        space = replace(get_space("btb_budget"), workloads=("nutch",))
        reference = None
        for backend in ("serial", "thread", "process"):
            _fresh(tmp_path / backend, monkeypatch)
            result = explore(space, backend=backend, **EXPLORE_KWARGS)
            payload = result.to_jsonl()
            if reference is None:
                reference = payload
            else:
                assert payload == reference, backend
        clear_result_cache()

    def test_thread_backend_counts_every_simulation(self, tmp_path,
                                                    monkeypatch):
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=1000)
                 for scheme in ("baseline", "ideal", "fdip", "rdip")]
        with simulation_meter() as meter:
            run_specs(specs, backend="thread", max_workers=4)
        assert meter.count == len(specs)
        clear_result_cache()

    def test_process_backend_mirrors_every_simulation(self, tmp_path,
                                                      monkeypatch):
        """Cells simulated in pool workers count once in this process
        and land in its memo, so a later serial call hits."""
        from repro.core import sweep
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=1000)
                 for scheme in ("baseline", "ideal", "fdip", "rdip")]
        with simulation_meter() as meter:
            results = run_specs(specs, backend="process", max_workers=2)
        assert meter.count == len(specs)
        for spec in specs:
            assert sweep._RESULT_CACHE[spec.canonical()] \
                is results[spec.canonical()]
        with simulation_meter() as meter:
            run_specs(specs, backend="serial")
        assert meter.count == 0
        clear_result_cache()


class TestInterruptResume:
    SPECS = tuple(
        RunSpec(workload=workload, scheme=scheme, n_blocks=1000)
        for workload in ("nutch", "streaming")
        for scheme in ("baseline", "ideal")
    )

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path,
                                                         monkeypatch):
        _fresh(tmp_path, monkeypatch)
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        simulated = []

        def interrupt_after_two(event):
            if event.kind == "cell":
                simulated.append(event.spec)
                if len(simulated) == 2:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_specs(self.SPECS, backend="serial",
                      progress=interrupt_after_two, journal=journal)
        assert len(journal.completed) == 2
        assert not journal.finished

        # Resume: the journalled cells are served from the disk cache —
        # zero re-simulations — and only the remainder runs.
        clear_result_cache()
        resumed = RunJournal(journal.path)
        with simulation_meter() as meter:
            results = run_specs(self.SPECS, backend="serial",
                                journal=resumed)
        assert meter.count == len(self.SPECS) - 2
        assert len(results) == len(self.SPECS)
        assert resumed.finished
        assert len(resumed.completed) == len(self.SPECS)

        # A third pass is fully cached: nothing simulates at all.
        clear_result_cache()
        with simulation_meter() as meter:
            run_specs(self.SPECS, backend="serial",
                      journal=RunJournal(journal.path))
        assert meter.count == 0
        clear_result_cache()

    def test_interrupt_cancels_queued_pool_units(self, tmp_path,
                                                 monkeypatch):
        """Abandoning a pool backend's iterator cancels unstarted units
        instead of draining the whole sweep."""
        _fresh(tmp_path, monkeypatch)
        backend = ThreadBackend(max_workers=1)
        units = chunk_specs(list(self.SPECS), max_workers=1,
                            units_per_worker=len(self.SPECS))
        assert len(units) >= 2
        iterator = backend.execute(units, "interpreter")
        next(iterator)
        iterator.close()
        with simulation_meter() as meter:
            clear_result_cache()
            run_specs(self.SPECS, backend="serial")
        # At least the last unit never ran: resuming had work left.
        assert meter.count >= 1
        clear_result_cache()


class TestFullyCachedRunsNeverSchedule:
    """The satellite fix: cache probing happens before any backend or
    pool exists, so a fully-cached collection costs file reads only."""

    def test_no_backend_constructed_when_fully_cached(self, tmp_path,
                                                      monkeypatch):
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=1000)
                 for scheme in ("baseline", "ideal")]
        run_specs(specs, backend="serial")

        def explode(*args, **kwargs):
            raise AssertionError(
                "a fully-cached run must not resolve a backend")

        monkeypatch.setattr("repro.core.exec.policy.get_backend", explode)
        # Memo path (same process) ...
        results = run_specs(specs, backend="process", max_workers=4)
        assert len(results) == len(specs)
        # ... and disk path (fresh process simulated by clearing memo).
        clear_result_cache()
        results = run_specs(specs, backend="process", max_workers=4)
        assert len(results) == len(specs)
        clear_result_cache()

    def test_no_executor_constructed_when_fully_cached(self, tmp_path,
                                                       monkeypatch):
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme="baseline",
                         n_blocks=1000)]
        run_specs(specs, backend="serial")
        clear_result_cache()

        def explode(*args, **kwargs):
            raise AssertionError(
                "a fully-cached run must not construct an executor")

        monkeypatch.setattr(
            "repro.core.exec.backends.ProcessPoolExecutor", explode)
        monkeypatch.setattr(
            "repro.core.exec.backends.ThreadPoolExecutor", explode)
        for backend in ("process", "thread"):
            results = run_specs(specs, backend=backend)
            assert len(results) == len(specs)
        clear_result_cache()
