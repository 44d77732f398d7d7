"""Tests for the planned program build stage (profiles.build_programs).

The stage builds a table's missing programs on every usable CPU before
anything else runs, and ships the builders' programs home.  It must
build exactly what the serial path builds, never start a pool where the
execution policy would not, fall back to local builds on any builder
failure, keep one ``build_program`` span per workload, and ship
programs that cost no more memory than locally built ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import tracemalloc
from collections import Counter

import pytest

from repro.cfg.generator import generate_program
from repro.cfg.model import BasicBlock, Function
from repro.core.exec import ExecutionPolicy, ProcessBackend, scoped_policy
from repro.core.exec import faults, policy as policy_module
from repro.errors import ProgramError
from repro.experiments import table1
from repro.experiments.spec import run_table_spec
from repro.isa import BranchKind
from repro.obs import tracing
from repro.workloads import profiles
from repro.workloads.profiles import WORKLOAD_NAMES, SHIP_WEIGHT, \
    build_program, build_programs, clear_caches, get_profile, plan_builds
from tests.test_golden_workloads import _pinned, program_digest

#: The pool pinned to two workers, whatever the host's CPU count.
TWO_WORKERS = ExecutionPolicy(backend="process", max_workers=2)

#: Three light Table 2 workloads, for the failure-path tests.
LIGHT = ("nutch", "streaming", "zeus")

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injected fault reaches builders by fork inheritance")


@pytest.fixture
def cold_programs():
    """An empty program memo (traces too) for the test, emptied again
    afterwards so no test leaves a half-built memo behind."""
    clear_caches()
    yield
    clear_caches()


def _assert_golden(names):
    pinned = _pinned()
    for name in names:
        assert program_digest(build_program(name)) \
            == pinned[name]["program"], name


class TestPlan:
    def test_longest_first_with_ship_weight(self):
        assert SHIP_WEIGHT == 1.25
        plan = plan_builds(list(WORKLOAD_NAMES), 2)
        assert plan == [["oracle", "apache", "nutch"],
                        ["db2", "zeus", "streaming"]]

    def test_every_program_planned_once(self):
        plan = plan_builds(list(WORKLOAD_NAMES), 4)
        assert len(plan) == 4
        assert sorted(name for share in plan for name in share) \
            == sorted(WORKLOAD_NAMES)


class TestStage:
    def test_stage_builds_the_serial_programs(self, cold_programs):
        """(a) All six programs built by a 2-worker stage equal the
        pinned serial build."""
        with scoped_policy(TWO_WORKERS):
            build_programs(WORKLOAD_NAMES)
        assert sorted(profiles._PROGRAM_CACHE) == sorted(WORKLOAD_NAMES)
        _assert_golden(WORKLOAD_NAMES)

    @pytest.mark.parametrize("policy", [
        ExecutionPolicy(backend="serial"),
        ExecutionPolicy(backend="thread"),
        ExecutionPolicy(max_workers=1),
        ExecutionPolicy(backend="process", max_workers=1),
    ], ids=["serial", "thread", "one-worker", "process-one-worker"])
    def test_no_pool_unless_policy_picks_process(self, policy,
                                                 cold_programs,
                                                 monkeypatch):
        """(b) Serial, thread or one-worker policies start no pool and
        build nothing: the caller's serial path does it all."""
        made = _record_pools(monkeypatch)
        with scoped_policy(policy):
            build_programs(LIGHT)
        assert made == []
        assert profiles._PROGRAM_CACHE == {}

    def test_no_pool_on_one_cpu(self, cold_programs, monkeypatch):
        """The default policy on one usable CPU (``taskset -c 0``)."""
        made = _record_pools(monkeypatch)
        monkeypatch.setattr(policy_module, "usable_cpus", lambda: 1)
        build_programs(LIGHT)
        assert made == []
        assert profiles._PROGRAM_CACHE == {}

    def test_no_pool_in_a_pool_worker(self, cold_programs, monkeypatch):
        made = _record_pools(monkeypatch)
        monkeypatch.setattr(tracing, "_worker", True)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert made == []
        assert profiles._PROGRAM_CACHE == {}

    def test_no_pool_for_one_missing_program(self, cold_programs,
                                             monkeypatch):
        build_program("nutch")
        made = _record_pools(monkeypatch)
        with scoped_policy(TWO_WORKERS):
            build_programs(("nutch", "streaming", "no-such-workload"))
        assert made == []

    def test_pool_that_cannot_start_leaves_serial_path(self, cold_programs,
                                                       monkeypatch):
        """The control for the tests above: a process policy does reach
        the pool, and when it cannot be made nothing is built."""
        made = _record_pools(monkeypatch)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert made == [1]
        assert profiles._PROGRAM_CACHE == {}
        _assert_golden(LIGHT)

    @needs_fork
    def test_builder_crash_falls_back_to_local_build(self, cold_programs,
                                                     monkeypatch):
        """(c) A builder that dies ships nothing; the parent's own share
        stays, and the caller builds the rest with the same digests."""
        real = profiles.generate_program

        def crashing(params):
            if faults.in_worker():
                os._exit(3)
            return real(params)

        monkeypatch.setattr(profiles, "generate_program", crashing)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert sorted(profiles._PROGRAM_CACHE) \
            == sorted(plan_builds(list(LIGHT), 2)[0])
        _assert_golden(LIGHT)

    def test_failed_build_raises_from_the_caller(self, cold_programs,
                                                 monkeypatch):
        """A build that fails everywhere is left to build_program, which
        raises what it always raised; the stage itself never does."""
        real = profiles.generate_program
        broken = get_profile("zeus").gen_params

        def failing(params):
            if params == broken:
                raise ProgramError("zeus cannot be generated")
            return real(params)

        monkeypatch.setattr(profiles, "generate_program", failing)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert "zeus" not in profiles._PROGRAM_CACHE
        with pytest.raises(ProgramError, match="zeus cannot"):
            build_program("zeus")

    def test_traced_table_has_one_build_per_workload(self, cold_programs):
        """(d) A traced Table 1 records one build_program span per
        workload, builders' spans shipped home under build_programs."""
        tracing.reset()
        with tracing.enable(), scoped_policy(TWO_WORKERS):
            run_table_spec(table1.SPEC, n_blocks=1000)
        spans = tracing.drain()
        builds = [s for s in spans if s["name"] == "build_program"]
        assert Counter(s["attrs"]["workload"] for s in builds) \
            == Counter(WORKLOAD_NAMES)
        assert len({s["pid"] for s in builds}) == 2
        stage = [s for s in spans if s["name"] == "build_programs"]
        assert len(stage) == 1
        assert all(s["parent_id"] == stage[0]["span_id"] for s in builds)


class TestShippedPrograms:
    def test_round_trip_keeps_digest_sharing_and_footprint(self):
        """(e) A shipped program equals the built one, keeps its interned
        blocks shared and holds no more memory (tracemalloc, 5%)."""
        params = get_profile("zeus").gen_params
        generate_program(params)  # warm the generator's own state
        fresh, fresh_bytes = _traced(lambda: generate_program(params))
        blob = pickle.dumps(fresh)
        shipped, shipped_bytes = _traced(lambda: pickle.loads(blob))
        assert program_digest(shipped) == program_digest(fresh)
        assert _distinct_blocks(shipped) == _distinct_blocks(fresh)
        assert shipped_bytes <= 1.05 * fresh_bytes, (
            shipped_bytes, fresh_bytes)

    def test_round_trip_revalidates(self):
        """Blocks and functions unpickle through their constructors, so
        a corrupt one is rejected as it arrives."""
        program = build_program("nutch").program
        restored = pickle.loads(pickle.dumps(program))
        assert [(f.fid, f.is_kernel, f.blocks, f.block_addrs)
                for f in restored.functions] \
            == [(f.fid, f.is_kernel, f.blocks, f.block_addrs)
                for f in program.functions]
        # A function's addresses belong to its program.
        function = program.functions[0]
        alone = pickle.loads(pickle.dumps(function))
        assert alone == Function(function.fid, function.blocks,
                                 function.is_kernel)
        with pytest.raises(ProgramError, match="not been laid out"):
            alone.block_addrs
        block = BasicBlock(ninstr=4, kind=BranchKind.RET)
        object.__setattr__(block, "ninstr", 40)
        with pytest.raises(ProgramError, match="ninstr"):
            pickle.loads(pickle.dumps(block))
        broken = Function(fid=0, blocks=[BasicBlock(ninstr=4,
                                                    kind=BranchKind.RET)])
        broken.blocks.append(BasicBlock(ninstr=2, kind=BranchKind.JUMP,
                                        taken_succ=0))
        with pytest.raises(ProgramError, match="must end with RET"):
            pickle.loads(pickle.dumps(broken))


def _record_pools(monkeypatch):
    """Make ProcessBackend._make_pool record its worker count and fail."""
    made = []

    def refuse(self, workers):
        made.append(workers)
        raise OSError("no pool in this test")

    monkeypatch.setattr(ProcessBackend, "_make_pool", refuse)
    return made


def _traced(build):
    """(value, bytes it holds) of ``build()``, measured by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return value, held


def _distinct_blocks(generated):
    blocks = [block for function in generated.program.functions
              for block in function.blocks]
    return len({id(block) for block in blocks}), len(set(blocks))
