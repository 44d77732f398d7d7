"""Program-affine work-unit chunking for the sweep scheduler.

Dispatching one pool task per cell maximises balance but pays per-task
overhead (pickling, IPC, scheduling) on every cell; dispatching one
task per worker amortises overhead but lets one slow worker straggle.
A process-pool worker also pays for every workload program and trace
it touches that it did not inherit warm: the program's lazy binary
image, its static-target map, and any trace the parent never built.
So the scheduler groups cells by *program* first: the cells of one
workload go into one :class:`WorkUnit`, with cells that replay the same
trace adjacent, and whole groups are packed into units by *trace-block
cost* (a cell's trace length is proportional to its simulation time).
A group costlier than half of one worker's share of the sweep is split
into pieces of at most that half share; as a trace's cells are
adjacent, each cut splits at most one trace across two pieces.  A
sweep of few, large groups (Figure 7's six workloads on four or more
workers, a single-workload sweep) thus still yields about two pieces
per worker to balance, while a sweep of many smaller groups keeps each
program on one worker.  Units are ordered longest-first and drained
from the execution loop's own queue, so rebalancing is work-stealing in
effect: a worker that finishes its unit early simply pulls the next
unit, and the tail of the sweep is made of the smallest units.

The grouping never affects results — cells are independent,
deterministic simulations — only how they are batched onto workers, so
every backend is bit-identical to the serial path by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing

#: How many units the policy aims to create per worker.  Higher means
#: finer rebalancing but more per-task overhead; 4 keeps the straggler
#: tail under a quarter of a worker's share.
UNITS_PER_WORKER = 4

#: A workload group is cut into pieces of at most ``1 / PIECES_PER_WORKER``
#: of a worker's share.  Longest-first dispatch ends within one piece of
#: the ideal makespan, so 2 bounds the imbalance at half a share, paid
#: for by one extra program-image build per extra piece.
PIECES_PER_WORKER = 2


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable batch of cells.

    ``index`` is the unit's position in dispatch order (longest-first);
    ``cost`` is the summed trace-block cost of its cells.
    """

    index: int
    specs: Tuple[Any, ...]
    cost: int


def spec_cost(spec: Any) -> int:
    """Cost estimate of one cell: its trace length in dynamic blocks.

    Simulation time is linear in replayed blocks (the engine is a
    single pass over the trace), so ``n_blocks`` is the right relative
    weight; specs without a resolved length count as 1 so a mixed
    collection still chunks.
    """
    blocks = getattr(spec, "n_blocks", None)
    return max(1, int(blocks)) if blocks else 1


def _trace_key(spec: Any) -> Tuple[Any, Any, Any]:
    """The trace a cell replays: ``(workload, n_blocks, seed)``."""
    return (getattr(spec, "workload", None), getattr(spec, "n_blocks", None),
            getattr(spec, "seed", None))


def _program_groups(specs: Sequence[Any],
                    costs: Sequence[int]) -> List[List[int]]:
    """Spec indices grouped by workload, in first-appearance order.

    Each group is ordered costliest first, the cells of one trace
    (equal length, hence equal cost) adjacent in first-appearance order.
    A sampled grid lists its cells scheme-major, one window trace per
    seed; without adjacency every piece of a split group would need
    every window trace, and a pool worker builds each trace it touches.
    """
    first: Dict[Tuple[Any, Any, Any], int] = {}
    groups: Dict[Any, List[int]] = {}
    for i, spec in enumerate(specs):
        key = _trace_key(spec)
        first.setdefault(key, i)
        groups.setdefault(key[0], []).append(i)
    return [sorted(members, key=lambda i: (
                -costs[i], first[_trace_key(specs[i])], i))
            for members in groups.values()]


def _pack(items: Sequence[Any], costs: Sequence[int],
          limit: int) -> List[Tuple[List[Any], int]]:
    """Greedily pack *items* in order into ``(batch, cost)`` pairs,
    closing a batch when the next item would take it past *limit* (an
    item above *limit* gets a batch of its own)."""
    batches: List[Tuple[List[Any], int]] = []
    batch: List[Any] = []
    batch_cost = 0
    for item, cost in zip(items, costs):
        if batch and batch_cost + cost > limit:
            batches.append((batch, batch_cost))
            batch, batch_cost = [], 0
        batch.append(item)
        batch_cost += cost
    if batch:
        batches.append((batch, batch_cost))
    return batches


def chunk_specs(specs: Sequence[Any], max_workers: int,
                units_per_worker: int = UNITS_PER_WORKER) -> List[WorkUnit]:
    """Group *specs* into program-affine, cost-balanced units, longest-first.

    Cells are first grouped by workload (:func:`_program_groups`); a group
    costlier than ``total / (max_workers * PIECES_PER_WORKER)`` is split
    into pieces of at most that cost.  The pieces are then laid out in
    descending cost order — classic longest processing time dispatch,
    which keeps the end-of-sweep straggler small — and greedily packed
    until a unit reaches the target, ``total / (workers *
    units_per_worker)`` floored at the *median* cell cost so tiny
    sweeps still form units.  (The floor used to be the **cheapest**
    cell, which shattered heterogeneous sweeps: one short-trace cell
    dragged the target down to its own cost and every long-trace cell
    became a singleton unit — far more units than slots, all per-task
    overhead.)  Pieces costlier than the target get units of their own.
    Deterministic: equal inputs produce equal units, and the unit count
    is bounded by ``min(len(specs), 4 * workers * units_per_worker +
    2)`` (every closed unit exceeds half the target).
    """
    specs = list(specs)
    if not specs:
        return []
    with _obs_tracing.span("schedule", cells=len(specs),
                           workers=max_workers):
        costs = [spec_cost(spec) for spec in specs]
        total = sum(costs)
        workers = max(1, max_workers)
        slots = workers * max(1, units_per_worker)
        floor = sorted(costs)[len(costs) // 2]
        target = max(floor, total // slots)
        piece_limit = -(-total // (workers * PIECES_PER_WORKER))

        pieces = [piece
                  for group in _program_groups(specs, costs)
                  for piece in _pack(group, [costs[i] for i in group],
                                     piece_limit)]
        pieces.sort(key=lambda piece: (-piece[1], piece[0][0]))
        units = [
            WorkUnit(index=index,
                     specs=tuple(specs[i] for members in batch
                                 for i in members),
                     cost=cost)
            for index, (batch, cost) in enumerate(_pack(
                [members for members, _ in pieces],
                [cost for _, cost in pieces], target))
        ]
    _obs_metrics.counter("chunking.calls").inc()
    _obs_metrics.counter("chunking.units").inc(len(units))
    _obs_metrics.counter("chunking.cells").inc(len(specs))
    _obs_metrics.gauge("chunking.last_target_cost").set(target)
    _obs_metrics.gauge("chunking.last_units").set(len(units))
    return units


__all__ = ["WorkUnit", "chunk_specs", "spec_cost", "UNITS_PER_WORKER"]
