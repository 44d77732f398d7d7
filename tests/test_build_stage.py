"""Tests for the planned program build stage (profiles.build_programs).

The stage builds a table's missing programs on every usable CPU before
anything else runs, in forked builders only, and ships the programs
home.  It must build exactly what the serial path builds, generate
nothing in the calling process, never start a pool where the execution
policy would not, fall back to local builds on any builder failure,
keep one ``build_program`` span per workload, and ship programs that
cost no more memory than locally built ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.cfg.generator import generate_program
from repro.core.exec import ExecutionPolicy, ProcessBackend, scoped_policy
from repro.core.exec import faults, policy as policy_module
from repro.errors import ProgramError
from repro.experiments import table1
from repro.experiments.spec import run_table_spec
from repro.isa import BranchKind
from repro.obs import tracing
from repro.workloads import profiles
from repro.workloads.profiles import WORKLOAD_NAMES, \
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
    def test_longest_first_on_function_count(self):
        """Shipping is cheap, so no share is weighted: 10000/9800
        functions on two shares."""
        plan = plan_builds(list(WORKLOAD_NAMES), 2)
        assert plan == [["oracle", "zeus", "nutch"],
                        ["db2", "apache", "streaming"]]

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

    def test_this_process_generates_nothing(self, cold_programs,
                                            monkeypatch):
        """Every share goes to a forked builder: a spy on the generator
        sees no call in this process, and every program arrives."""
        real = profiles.generate_program
        here = os.getpid()
        calls = []

        def spy(params):
            calls.append(os.getpid())
            return real(params)

        monkeypatch.setattr(profiles, "generate_program", spy)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert here not in calls
        assert sorted(profiles._PROGRAM_CACHE) == sorted(LIGHT)

    def test_shipped_programs_equal_serial_ones(self, cold_programs):
        """Column by column, each shipped program equals one generated
        here from the same parameters, and so do its roots, root
        weights and kernel functions."""
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        for name in LIGHT:
            shipped = profiles._PROGRAM_CACHE[name]
            serial = generate_program(get_profile(name).gen_params)
            state, expected = (shipped.program.__getstate__(),
                               serial.program.__getstate__())
            assert state.keys() == expected.keys()
            for key, column in expected.items():
                assert np.array_equal(state[key], column), (name, key)
                assert np.asarray(state[key]).dtype \
                    == np.asarray(column).dtype, (name, key)
            assert shipped.roots == serial.roots
            assert shipped.kernel_fids == serial.kernel_fids
            assert np.array_equal(shipped.root_weights,
                                  serial.root_weights)
            assert shipped.params == serial.params

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
        the pool, one builder per share, and when it cannot be made
        nothing is built."""
        made = _record_pools(monkeypatch)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert made == [len(plan_builds(list(LIGHT), 2))] == [2]
        assert profiles._PROGRAM_CACHE == {}
        _assert_golden(LIGHT)

    @needs_fork
    def test_builder_crash_falls_back_to_local_build(self, cold_programs,
                                                     monkeypatch):
        """(c) A builder that dies ships nothing (it breaks the pool, so
        neither does the other), and the caller builds every program
        with the same digests."""
        real = profiles.generate_program

        def crashing(params):
            if faults.in_worker():
                os._exit(3)
            return real(params)

        monkeypatch.setattr(profiles, "generate_program", crashing)
        with scoped_policy(TWO_WORKERS):
            build_programs(LIGHT)
        assert profiles._PROGRAM_CACHE == {}
        _assert_golden(LIGHT)

    def test_failed_build_raises_from_the_caller(self, cold_programs,
                                                 monkeypatch):
        """A build that fails everywhere is left to build_program, which
        raises what it always raised; the stage itself never does, and
        the other builder's share still arrives."""
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
        other = [share for share in plan_builds(list(LIGHT), 2)
                 if "zeus" not in share]
        assert sorted(profiles._PROGRAM_CACHE) == sorted(other[0])
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
        assert os.getpid() not in {s["pid"] for s in builds}
        stage = [s for s in spans if s["name"] == "build_programs"]
        assert len(stage) == 1
        assert all(s["parent_id"] == stage[0]["span_id"] for s in builds)

    def test_table_leaves_every_program_frozen(self, cold_programs):
        """Programs shipped home by the builders all end up out of the
        collectable generations, and still equal the pinned serial
        build."""
        with scoped_policy(TWO_WORKERS):
            run_table_spec(table1.SPEC, n_blocks=1000)
        assert sorted(profiles._PROGRAM_CACHE) == sorted(WORKLOAD_NAMES)
        collectable = {id(obj) for obj in gc.get_objects()}
        for name, generated in profiles._PROGRAM_CACHE.items():
            built = [generated, generated.program, generated.roots,
                     generated.kernel_fids]
            assert not [obj for obj in built if id(obj) in collectable], \
                name
        _assert_golden(WORKLOAD_NAMES)


class TestShippedPrograms:
    def test_round_trip_keeps_digest_and_footprint(self):
        """(e) A shipped program equals the built one, travels as its
        columns (a few bytes per block) and holds no more memory
        (tracemalloc, 5%)."""
        params = get_profile("zeus").gen_params
        generate_program(params)  # warm the generator's own state
        fresh, fresh_bytes = _traced(lambda: generate_program(params))
        blob = pickle.dumps(fresh)
        shipped, shipped_bytes = _traced(lambda: pickle.loads(blob))
        assert program_digest(shipped) == program_digest(fresh)
        assert len(blob) < 24 * fresh.program.total_blocks
        assert shipped_bytes <= 1.05 * fresh_bytes, (
            shipped_bytes, fresh_bytes)

    def test_round_trip_revalidates(self):
        """Programs unpickle through their constructor, so corrupt
        columns are rejected as they arrive."""
        program = build_program("nutch").program
        restored = pickle.loads(pickle.dumps(program))
        state, again = program.__getstate__(), restored.__getstate__()
        assert state.keys() == again.keys()
        assert all(np.array_equal(state[key], again[key]) for key in state)
        assert np.array_equal(restored.block_pc, program.block_pc)

        broken = pickle.loads(pickle.dumps(program))
        broken.ninstr = broken.ninstr.copy()
        broken.ninstr[0] = 40
        with pytest.raises(ProgramError, match="ninstr"):
            pickle.loads(pickle.dumps(broken))
        broken = pickle.loads(pickle.dumps(program))
        broken.kind = broken.kind.copy()
        user = int(np.flatnonzero(~program.is_kernel)[0])
        broken.kind[program.func_start[user + 1] - 1] = BranchKind.TRAP_RET
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
