"""Tests for the collector pause around long-lived builds (repro.heap).

A pause turns automatic collection off while a program or image is
built; the outermost pause then collects once and freezes what is left.
It must nest, survive concurrent builders, never touch a caller's own
choice to turn collection off, never pin a garbage cycle, and leave
frozen programs to reference counting when a memo evicts them.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro import heap
from repro.cfg.generator import GeneratorParams
from repro.workloads import profiles
from repro.workloads.profiles import WorkloadProfile, build_program, \
    register_profile

#: A program small enough to build many times over.
SMALL = WorkloadProfile(
    name="heap-small",
    description="a small program for collector-pause tests",
    gen_params=GeneratorParams(n_functions=80, n_layers=4, n_roots=4,
                               median_blocks=6.0, seed=211),
)


@pytest.fixture
def small_profile():
    """Register :data:`SMALL`, and drop it and its memo afterwards."""
    saved = dict(profiles._PROFILES)
    register_profile(SMALL, replace=True)
    yield SMALL
    profiles._PROFILES.clear()
    profiles._PROFILES.update(saved)
    profiles._PROGRAM_CACHE.pop(SMALL.name, None)


@pytest.fixture
def collection_off():
    """Turn automatic collection off for the test, as a caller might."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _collectable_ids():
    return {id(obj) for obj in gc.get_objects()}


class _Node:
    pass


class TestPause:
    def test_nested_pauses_restore_collection(self):
        assert gc.isenabled()
        with heap.building():
            assert not gc.isenabled()
            with heap.building():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        assert heap._depth == 0

    def test_pause_ends_on_error(self):
        with pytest.raises(KeyError):
            with heap.building():
                raise KeyError("boom")
        assert gc.isenabled()
        assert heap._depth == 0

    def test_caller_turned_collection_off(self, collection_off):
        frozen = gc.get_freeze_count()
        with heap.building():
            built = [_Node() for _ in range(100)]
        heap.settle()
        assert not gc.isenabled()
        assert gc.get_freeze_count() == frozen
        assert id(built) in _collectable_ids()

    def test_built_state_is_frozen(self):
        with heap.building():
            built = [_Node() for _ in range(100)]
        assert gc.get_freeze_count() >= len(built)
        collectable = _collectable_ids()
        assert id(built) not in collectable
        assert all(id(node) not in collectable for node in built)

    def test_settle_freezes_what_is_alive(self):
        alive = [_Node()]
        heap.settle()
        assert id(alive) not in _collectable_ids()
        assert gc.isenabled()

    def test_settle_waits_for_the_pause_to_end(self):
        with heap.building():
            built = [_Node()]
            heap.settle()
            assert id(built) in _collectable_ids()
            assert not gc.isenabled()
        assert id(built) not in _collectable_ids()

    def test_garbage_cycle_dropped_before_a_build_is_not_pinned(self):
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        with heap.building():
            pass
        assert ref() is None

    def test_two_threads_building_at_once(self):
        both_inside = threading.Barrier(2, timeout=30)
        errors = []

        def build():
            try:
                with heap.building():
                    both_inside.wait()
                    [_Node() for _ in range(100)]
            except Exception as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
        assert heap._depth == 0

    def test_many_threads_never_lose_a_pause(self):
        """More builders than cores, switching often: collection stays
        off inside every pause, and once all end it is back on with the
        depth back to zero.  An unlocked depth lets one builder's
        closing collection turn collection back on under another."""
        errors = []
        collecting_inside = []

        def build(start):
            try:
                start.wait()
                for _ in range(40):
                    time.sleep(0)  # let another builder in, or out
                    with heap.building():
                        _Node()
                        time.sleep(0)
                        if gc.isenabled():
                            collecting_inside.append(True)
            except Exception as error:  # reported below
                errors.append(error)

        heap.settle()  # keep each closing collection short
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                start = threading.Barrier(8, timeout=30)
                threads = [threading.Thread(target=build, args=(start,))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert collecting_inside == []
        assert gc.isenabled()
        assert heap._depth == 0


class TestPrograms:
    def test_built_program_is_frozen_and_image_is_arrays(self,
                                                         small_profile):
        generated = build_program(small_profile.name)
        program = generated.program
        collectable = _collectable_ids()
        for obj in (generated, program, generated.roots,
                    generated.kernel_fids):
            assert id(obj) not in collectable
        # Columns, layout and image columns are arrays, which the
        # collector never tracks; the image needs no pause of its own.
        image = program.image
        arrays = [*vars(program).values(), image.lines, image.bounds,
                  image.target]
        arrays = [value for value in arrays
                  if isinstance(value, np.ndarray)]
        assert len(arrays) >= 14
        assert not [array for array in arrays if gc.is_tracked(array)]

    def test_evicted_program_dies_by_refcount(self, small_profile,
                                              collection_off):
        gc.enable()
        generated = build_program(small_profile.name)
        generated.program.image
        ref = weakref.ref(generated.program)
        assert id(generated.program) not in _collectable_ids()
        del generated
        gc.disable()
        register_profile(replace(small_profile, gen_params=replace(
            small_profile.gen_params, seed=212)), replace=True)
        assert ref() is None

    def test_freeze_count_stays_bounded_over_rebuilds(self, small_profile):
        def round_trip(seed):
            register_profile(replace(small_profile, gen_params=replace(
                small_profile.gen_params, seed=seed)), replace=True)
            build_program(small_profile.name).program.image
            return gc.get_freeze_count()

        after_one = round_trip(300)
        counts = [round_trip(301 + n) for n in range(19)]
        assert max(counts) <= after_one + 1_000, (after_one, counts)
