"""Differential tests: :class:`repro.cfg.draws.Draws` against a twin
``numpy.random.default_rng(seed)``, call for call and bit for bit."""

import gc
import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg import draws as draws_module
from repro.cfg.draws import NUMPY_PIN, Draws

#: ``integers(0, n)`` bounds: no draw (1), small spans, both sides of
#: the direct 32-bit draw (2**32 - 1 is Lemire's, 2**32 the raw half),
#: and 64-bit spans.
_BOUNDS = (1, 2, 3, 4, 6, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32,
           2**32 + 1, 2**40 + 3, 2**63 - 1)

#: One call: ``(method, args)``.  Poisson means cross numpy's switch
#: from the multiplication method to PTRS at 10.
_CALLS = st.one_of(
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("random"), st.tuples(st.integers(1, 9))),
    st.tuples(st.just("integers"), st.tuples(
        st.just(0), st.sampled_from(_BOUNDS) | st.integers(1, 2**20))),
    st.tuples(st.just("integers"), st.tuples(
        st.integers(-50, 0), st.integers(1, 50))),
    st.tuples(st.just("poisson"), st.tuples(
        st.sampled_from((0.0, 0.1, 3.5, 9.99, 10.0, 42.5, 1e4))
        | st.floats(0.0, 30.0))),
    st.tuples(st.just("uniform"), st.tuples(
        st.floats(-1e3, 1e3), st.floats(0.0, 1e3)).map(
            lambda pair: (pair[0], pair[0] + pair[1]))),
    st.tuples(st.just("exponential"), st.tuples(st.floats(0.01, 100.0))),
    st.tuples(st.just("lognormal"), st.tuples(
        st.floats(-3.0, 3.0), st.floats(0.01, 3.0))),
)


def _twin_value(value):
    """The twin's return value as Draws returns it: Python numbers."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _replay(seed, calls, chunk):
    """Run *calls* on a Draws (buffer refilled *chunk* raws at a time)
    and on its twin; both end with ``permutation(7)``."""
    with mock.patch.object(draws_module, "_CHUNK", chunk):
        draws, twin = Draws(seed), np.random.default_rng(seed)
        for method, args in calls:
            got = getattr(draws, method)(*args)
            want = _twin_value(getattr(twin, method)(*args))
            assert got == want, (method, args)
            assert type(got) is not np.ndarray
        assert (draws.permutation(7) == twin.permutation(7)).all()
    return draws, twin


class TestAgainstNumpy:
    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(_CALLS, max_size=40),
           chunk=st.sampled_from((1, 2, 3, 5, 64, 1024)))
    def test_interleaved_calls(self, seed, calls, chunk):
        draws, twin = _replay(seed, calls, chunk)
        # The real bit generator is handed the cursor and the 32-bit
        # stash for permutation: its state is the twin's.
        assert draws._generator.bit_generator.state \
            == twin.bit_generator.state
        # And the stream carries on after it.
        assert draws.integers(0, 5) == twin.integers(0, 5)
        assert draws.random(3) == twin.random(3).tolist()

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_stash_spans_other_draws(self, chunk):
        """One raw output serves two 32-bit draws, low half first; the
        high half waits through random() (which never touches it) and
        through integers(0, 1) (which draws nothing)."""
        calls = [("integers", (0, 10)), ("random", ()),
                 ("integers", (0, 1)), ("integers", (0, 2**32 - 1)),
                 ("integers", (0, 2**32)), ("poisson", (3.5,)),
                 ("integers", (0, 2**32)), ("integers", (0, 7))]
        _replay(5, calls, chunk)

    @pytest.mark.parametrize("lam", [0.1, 3.5, 9.5])
    def test_long_poisson_runs_cross_chunks(self, lam):
        calls = [("poisson", (lam,))] * 300 + [("random", (5,))]
        for chunk in (1, 2, 7):
            _replay(11, calls, chunk)

    def test_ensure_reads_inline(self):
        draws, twin = Draws(3), np.random.default_rng(3)
        i = draws.ensure(10)
        assert draws.u[i:i + 10] == twin.random(10).tolist()
        draws.i = i + 10
        assert draws.integers(0, 9) == twin.integers(0, 9)
        assert draws.u[-1] == 0.0  # the end marker past the buffer


class TestRoutines:
    def test_missing_symbol_names_the_numpy_pin(self):
        """The pin the C routines are resolved against is the one in
        requirements.txt, and a failed lookup says so."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "requirements.txt")) as handle:
            assert NUMPY_PIN in handle.read().split()
        draws_module._routines.cache_clear()
        try:
            with mock.patch.object(draws_module, "_SYMBOLS",
                                   ("random_standard_exponential",
                                    "random_lognormal", "no_such_routine")):
                with pytest.raises(ImportError, match=NUMPY_PIN):
                    Draws(1).exponential()
        finally:
            draws_module._routines.cache_clear()
        assert Draws(1).exponential() \
            == np.random.default_rng(1).exponential()

    def test_routines_load_on_first_use(self):
        draws_module._routines.cache_clear()
        draws = Draws(2)
        draws.random(5)
        draws.integers(0, 3)
        draws.poisson(2.0)
        assert draws_module._routines.cache_info().currsize == 0
        draws.lognormal(1.0, 0.5)
        assert draws_module._routines.cache_info().currsize == 1

    def test_draws_leave_no_cycle(self):
        """The bitgen_t's state is a weak reference: a Draws that ran a
        C routine is freed by reference counting alone."""
        draws = Draws(4)
        draws.exponential(2.0)
        ref = weakref.ref(draws)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del draws
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_rejects_what_numpy_rejects(self):
        draws = Draws(1)
        with pytest.raises(ValueError):
            draws.integers(3, 3)
        with pytest.raises(ValueError):
            draws.poisson(-1.0)
        with pytest.raises(ValueError):
            draws.poisson(float("nan"))
        with pytest.raises(ValueError):
            draws.uniform(0.0, -0.0)
