"""``numpy.random.default_rng(seed)``'s draws, read from buffered raw output.

Workload construction (:mod:`repro.cfg.generator`) and execution
(:mod:`repro.workloads.tracegen`) make over a million scalar draws per
paper suite, and a scalar ``Generator`` call costs 0.5-2.5 µs however
little it draws.  :class:`Draws` returns what ``default_rng(seed)``
would return, call for call and bit for bit, but reads PCG64's raw
64-bit outputs in chunks (``bit_generator.random_raw``) and derives each
draw from them in Python, re-deriving numpy 2.4's draw arithmetic:

* ``random()``: numpy's ``next_double``, ``(raw >> 11) * 2**-53``, which
  is exact when vectorised, so the buffer keeps it per raw output as
  ``u``; ``uniform(lo, hi)`` is ``lo + (hi - lo) * u``.
* ``poisson(lam)`` for ``lam < 10``: the multiplication method, which
  multiplies successive ``u`` until the product is ``<= exp(-lam)``.
* ``integers(low, high)``: Lemire's bounded method on ``next_uint32``
  (``next_uint64`` above 32-bit ranges).  PCG64 serves two 32-bit draws
  from one raw output, low half first, and stashes the high half; the
  stash is kept here, untouched by ``random()``.
* ``exponential``, ``lognormal`` and ``poisson(lam >= 10)`` run numpy's
  own C routines (exported by ``numpy.random._generator``) through
  ``ctypes`` on a ``bitgen_t`` whose callbacks read this buffer, so they
  are exact by construction.
* ``permutation`` is handed to the real bit generator, rewound to the
  cursor with its stash restored.

Hot loops read the buffer inline: ``i = draws.ensure(k)`` guarantees
``k`` values in ``draws.u`` from cursor ``i``; the caller reads
``u[i]`` and advances ``i`` itself, and stores ``draws.i = i`` before it
calls any method.  ``u`` is refilled in place, so an alias stays valid.
``u`` ends with a 0.0 past the buffered values, so an inline product
loop (the Poisson draw) stops at the buffer's end at the latest; a
product of 0 sends the caller back to ``poisson()`` from where it began.
Values come back as Python numbers (a list for ``random(size)``).

The numpy pin in ``requirements.txt`` pins these routines and this
arithmetic; ``tests/test_draws.py`` checks every method against a twin
``default_rng``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from types import SimpleNamespace
from typing import List, Optional, Union

import numpy as np

#: Raw outputs fetched per refill; also the buffer's cap (a refill that
#: must hold more takes exactly what it needs).
_CHUNK = 1024

#: ``next_double``'s scale: 53 random bits into [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: The numpy release whose C routines and draw arithmetic are re-derived.
NUMPY_PIN = "numpy>=2.4,<2.5"

#: The C routines run through ``ctypes``.
_SYMBOLS = ("random_standard_exponential", "random_lognormal",
            "random_poisson")


@functools.lru_cache(maxsize=None)
def _routines() -> SimpleNamespace:
    """numpy's C draw routines, its ``bitgen_t`` and the callbacks that
    read a :class:`Draws` (loaded on first use, once per process)."""
    from numpy.random import _generator

    class BitgenT(ctypes.Structure):
        """numpy's ``bitgen_t``; ``state`` is a weak reference to a
        Draws."""

        _fields_ = [("state", ctypes.py_object)] + [
            (name, ctypes.CFUNCTYPE(ctype, ctypes.py_object))
            for name, ctype in (("next_uint64", ctypes.c_uint64),
                                ("next_uint32", ctypes.c_uint32),
                                ("next_double", ctypes.c_double),
                                ("next_raw", ctypes.c_uint64))]

    # PyDLL keeps the GIL across the call; the callbacks run Python.
    lib = ctypes.PyDLL(_generator.__file__)
    try:
        exponential, lognormal, poisson = (getattr(lib, name)
                                           for name in _SYMBOLS)
    except AttributeError as exc:
        raise ImportError(
            f"numpy {np.__version__} does not export {exc}; repro.cfg.draws "
            f"re-derives the draws of {NUMPY_PIN} (requirements.txt)"
        ) from None
    bitgen_p = ctypes.POINTER(BitgenT)
    exponential.argtypes = [bitgen_p]
    exponential.restype = ctypes.c_double
    lognormal.argtypes = [bitgen_p, ctypes.c_double, ctypes.c_double]
    lognormal.restype = ctypes.c_double
    poisson.argtypes = [bitgen_p, ctypes.c_double]
    poisson.restype = ctypes.c_int64
    fields = dict(BitgenT._fields_)
    return SimpleNamespace(
        exponential=exponential, lognormal=lognormal, poisson=poisson,
        bitgen_t=BitgenT, callbacks=(
            fields["next_uint64"](lambda ref: ref()._next_raw()),
            fields["next_uint32"](lambda ref: ref()._next_uint32()),
            fields["next_double"](lambda ref: ref().random()),
            fields["next_raw"](lambda ref: ref()._next_raw()),
        ))


class Draws:
    """The stream of ``numpy.random.default_rng(seed)``, buffered.

    Attributes:
        u: the buffered ``next_double`` values, then a 0.0; ``u[i]`` is
            the next ``random()``.
        i: the cursor, the index of the next unread raw output.
    """

    __slots__ = ("u", "i", "_raw", "_stash", "_generator", "_bitgen",
                 "__weakref__")

    def __init__(self, seed) -> None:
        self._generator = np.random.default_rng(seed)
        self.u: List[float] = [0.0]
        self.i = 0
        # The raw outputs behind ``u``, index for index.
        self._raw = np.empty(0, dtype=np.uint64)
        # The high half of a raw output kept for the next 32-bit draw.
        self._stash: Optional[int] = None
        # A pointer to its bitgen_t, built for the first C routine.
        self._bitgen = None

    # -- the buffer ---------------------------------------------------

    def ensure(self, k: int) -> int:
        """The cursor, with at least *k* values buffered from it."""
        i = self.i
        if len(self.u) - i <= k:
            i = self._refill(k)
        return i

    def _refill(self, k: int) -> int:
        """Drop the read values and top the buffer up to hold *k* (at
        least ``_CHUNK``) from a cursor moved to 0."""
        i, u = self.i, self.u
        del u[:i]
        u.pop()  # the end marker
        raw = self._generator.bit_generator.random_raw(
            max(_CHUNK, k) - len(u))
        self._raw = np.concatenate((self._raw[i:], raw))
        u.extend(((raw >> np.uint64(11)) * _DOUBLE_SCALE).tolist())
        u.append(0.0)
        self.i = 0
        return 0

    def _next_raw(self) -> int:
        i = self.ensure(1)
        self.i = i + 1
        return self._raw.item(i)

    def _next_uint32(self) -> int:
        stash = self._stash
        if stash is not None:
            self._stash = None
            return stash
        raw = self._next_raw()
        self._stash = raw >> 32
        return raw & _MASK32

    def _call_c(self, routine, *args):
        bitgen = self._bitgen
        if bitgen is None:
            routines = _routines()
            bitgen = self._bitgen = ctypes.pointer(routines.bitgen_t(
                weakref.ref(self), *routines.callbacks))
        return routine(bitgen, *args)

    # -- Generator methods --------------------------------------------

    def random(self, size: Optional[int] = None) -> Union[float, List[float]]:
        """``Generator.random()``; a list of *size* draws if given."""
        if size is None:
            i = self.i
            if len(self.u) - i <= 1:
                i = self._refill(1)
            self.i = i + 1
            return self.u[i]
        i = self.ensure(size)
        self.i = i + size
        return self.u[i:i + size]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = high - low
        if not math.copysign(1.0, span) > 0 or span != span:
            raise ValueError(f"range < 0: {span}")
        return low + span * self.random()

    def poisson(self, lam: float = 1.0) -> int:
        if lam >= 10:
            return self._call_c(_routines().poisson, lam)
        if not lam >= 0:
            raise ValueError(f"lam < 0 or lam is NaN: {lam}")
        if lam == 0:
            return 0
        limit = math.exp(-lam)
        u = self.u
        count = 0
        product = 1.0
        while True:
            i = self.ensure(1)
            product *= u[i]
            self.i = i + 1
            if product <= limit:
                return count
            count += 1

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: int64, *high* exclusive."""
        span = high - low - 1  # numpy's inclusive ``rng``
        if 0 < span < _MASK32:
            draw, bits, mask = self._next_uint32, 32, _MASK32
        elif span > _MASK32:  # an int64 span is below 2**64 - 1
            draw, bits, mask = self._next_raw, 64, _MASK64
        elif span == _MASK32:
            return low + self._next_uint32()
        elif span == 0:
            return low
        else:
            raise ValueError("low >= high")
        # Lemire's method on [0, span + 1).
        bound = span + 1
        m = draw() * bound
        if (m & mask) < bound:
            threshold = (mask - span) % bound
            while (m & mask) < threshold:
                m = draw() * bound
        return low + (m >> bits)

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self._call_c(_routines().exponential)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return self._call_c(_routines().lognormal, mean, sigma)

    def permutation(self, x) -> np.ndarray:
        """Drawn by numpy, on the real bit generator set to this stream's
        position; the buffer restarts after it."""
        bit_generator = self._generator.bit_generator
        bit_generator.advance(self.i - len(self._raw))  # back to the cursor
        state = bit_generator.state
        state["has_uint32"] = int(self._stash is not None)
        state["uinteger"] = self._stash or 0
        bit_generator.state = state
        self.u[:] = [0.0]
        self._raw = self._raw[:0]
        self.i = 0
        try:
            return self._generator.permutation(x)
        finally:
            state = bit_generator.state
            self._stash = state["uinteger"] if state["has_uint32"] else None
