"""Golden digests of workload construction: programs and window traces.

Every registered paper workload (the six Table 2 profiles) and scenario
family has two SHA-256 digests pinned in ``tests/golden/workloads.json``:

* ``program`` — a canonical walk of the generated program's columns:
  each function's fid, kernel flag and base address, every block field
  (successors function-local), then the roots, the bytes of the root
  weights and the kernel fids.  It is not a pickle, so it does not
  depend on pickle protocol or storage layout — only on what the
  generator produced.
* ``trace`` — one sampled-style window trace (``WINDOW_BLOCKS`` blocks,
  seed ``WINDOW_SEED``, the profile's own warm-up): each column's dtype
  and raw bytes.

Program generation and trace execution consume one seeded RNG stream,
so the *order* and *methods* of its draws are part of their output.  An
optimisation of either must leave both digests unchanged; a deliberate
change to the generated workloads changes every figure too, and must
regenerate these digests together with the figure snapshots::

    PYTHONPATH=src python tests/test_golden_workloads.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.workloads import profiles
from repro.workloads.profiles import build_program, get_profile
from repro.workloads.tracegen import generate_trace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "workloads.json")

#: The pinned window: sampled-mode sized, past the profile's warm-up.
WINDOW_BLOCKS = 1000
WINDOW_SEED = 4000

#: Registry suites the digests cover (user registrations are not pinned).
PINNED_SUITES = ("table2", "synthetic")


def pinned_workloads():
    return [profile.name for profile in profiles.iter_profiles()
            if profile.suite in PINNED_SUITES]


def program_digest(generated) -> str:
    """SHA-256 over a canonical walk of a generated program's columns.

    Per function, in fid order: its fid, kernel flag and base address,
    then each block's fields with the taken successor function-local
    (-1 where unused) and the candidate callees as a list.
    """
    program = generated.program
    digest = hashlib.sha256()
    func_start = program.func_start.tolist()
    callee_start = program.callee_start.tolist()
    callees = program.callees.tolist()
    blocks = list(zip(program.ninstr.tolist(), program.kind.tolist(),
                      program.taken_succ.tolist(),
                      program.behavior.tolist(),
                      program.behavior_param.tolist()))
    for fid, (is_kernel, base) in enumerate(zip(
            program.is_kernel.tolist(), program.func_base.tolist())):
        digest.update(f"F {fid} {int(is_kernel)} {base}\n".encode())
        first = func_start[fid]
        for b in range(first, func_start[fid + 1]):
            ninstr, kind, succ, behavior, param = blocks[b]
            digest.update(
                f"B {ninstr} {kind} {succ - first if succ >= 0 else -1} "
                f"{callees[callee_start[b]:callee_start[b + 1]]} "
                f"{behavior} {param!r}\n".encode())
    digest.update(f"R {list(generated.roots)}\n".encode())
    weights = generated.root_weights
    digest.update(f"W {weights.dtype.str}\n".encode())
    digest.update(weights.tobytes())
    digest.update(f"K {list(generated.kernel_fids)}\n".encode())
    return digest.hexdigest()


def trace_digest(trace) -> str:
    """SHA-256 over every stored column's dtype and bytes."""
    digest = hashlib.sha256()
    for name in ("pc", "ninstr", "kind", "taken", "target"):
        column = getattr(trace, name)
        digest.update(f"{name} {column.dtype.str} {len(column)}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def compute_digests(name: str) -> dict:
    generated = build_program(name)
    trace = generate_trace(generated, WINDOW_BLOCKS, seed=WINDOW_SEED,
                           warmup_blocks=get_profile(name).warmup_blocks)
    return {"program": program_digest(generated),
            "trace": trace_digest(trace)}


def _pinned() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_every_pinned_suite_workload_has_digests():
    assert sorted(_pinned()) == sorted(pinned_workloads())


@pytest.mark.parametrize("name", sorted(pinned_workloads()))
def test_workload_construction_unchanged(name):
    pinned = _pinned()[name]
    actual = compute_digests(name)
    assert actual == pinned, (
        f"{name}: generated program or trace drifted from "
        f"{GOLDEN_PATH}.  The generator's RNG draw order and methods "
        f"are part of its output; if the change is intentional, bump "
        f"repro.core.diskcache.ENGINE_VERSION and regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_workloads.py`."
    )


def regenerate() -> None:
    """Rewrite the digest file from the current generator (maintainers)."""
    pinned = {name: compute_digests(name) for name in pinned_workloads()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2)
        handle.write("\n")
    print(f"[pinned {GOLDEN_PATH}]")


if __name__ == "__main__":
    regenerate()
