"""Keep the cyclic garbage collector off long-lived built state.

A workload's program is built once, kept for the whole run and never
forms reference cycles, and so is most of what a process holds when a
program is built or a pool forks (modules, registries, memos).
CPython's cyclic collector would otherwise rescan all of it at every
full collection, in the parent and in every pool worker that inherits
it (DESIGN.md Section 7).

:func:`building` pauses automatic collection while such state is built.
When the outermost pause ends it runs one full collection and then
:func:`gc.freeze`, which moves every surviving object into the
permanent generation the collector never scans.  Collecting first means
no garbage cycle is ever frozen; frozen objects are still freed by
reference counting, so a program evicted from a memo dies as before.
:func:`settle` is the same collect-then-freeze on its own, for a
process about to fork workers that should never rescan (or copy on
write) the heap they inherit.  A process forked inside a pause inherits
it: it never collects at all.

If the caller has turned automatic collection off, neither changes
anything.  Nothing here changes what is built, only when the collector
looks at it.  :func:`estimated_bytes` is the one rule by which the
memos (traces and programs) size what they keep.  This module imports
nothing from ``repro``, so any layer may use it.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from array import array
from typing import Iterator

import numpy as np

#: Guards the pause depth and what the outermost pause restores.
#: Reentrant, so a build started by a finalizer during the closing
#: collection nests instead of deadlocking.
_LOCK = threading.RLock()

#: Pauses open in this process, across threads.
_depth = 0

#: Whether the outermost open pause turned automatic collection off
#: (and so must collect, freeze and turn it back on when it ends).
_resume = False


@contextlib.contextmanager
def building() -> Iterator[None]:
    """Pause automatic collection while long-lived state is built.

    Re-entrant and thread-safe: nested or concurrent pauses share one,
    and the last to end collects, freezes and resumes collection.
    """
    global _depth, _resume
    with _LOCK:
        if _depth == 0:
            _resume = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _LOCK:
            if _depth == 1 and _resume:
                gc.collect()
                gc.freeze()
                gc.enable()
            _depth -= 1


def settle() -> None:
    """Collect, then freeze everything still alive.

    Does nothing when the caller has turned automatic collection off,
    nor inside a pause: the pause settles when it ends, and a process
    forked inside it inherits the pause and never collects.
    """
    with _LOCK:
        if _depth == 0 and gc.isenabled():
            gc.collect()
            gc.freeze()


def estimated_bytes(value) -> int:
    """Bytes *value* holds, estimated without walking its scalars.

    A numpy array's ``nbytes``, an ``array.array``'s buffer, a ``bytes``
    length, 8 bytes per list or tuple slot or dict value, recursing into
    containers of containers (judged by the first item); the scalars a
    list points at are not counted.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, array):
        return value.itemsize * len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        total = 8 * len(value)
        if value and isinstance(value[0], (np.ndarray, array, bytes,
                                           bytearray, dict, list, tuple)):
            total += sum(estimated_bytes(item) for item in value)
        return total
    return 0


__all__ = ["building", "settle", "estimated_bytes"]
