"""Sequence <-> schedule conversions: the paper's ``rho`` and ``gamma``.

The RL agent emits a *node sequence* ``pi`` (a permutation of V).  The
deterministic packer ``rho`` (Eq. 2) turns a sequence into a stage
assignment for a given Edge TPU pipeline: it walks the sequence filling
stage 0 with nodes until the per-stage memory budget is reached, then
stage 1, and so on.  The same ``rho`` is applied to the exact method's
sequence ``gamma`` so rewards compare like with like (Eq. 3).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.graphs.dag import ComputationalGraph
from repro.scheduling.schedule import Schedule

#: Multiplier on the ideal per-stage share ``total/n`` used as the packing
#: budget.  A little slack avoids spilling a single node into a new stage
#: when the running sum lands a few bytes over the ideal share.
DEFAULT_BUDGET_SLACK = 1.05


def normalize_stage_counts(num_stages, count: int) -> List[int]:
    """Broadcast/validate per-graph stage counts for batched scheduling.

    ``num_stages`` is either one int shared by ``count`` graphs or a
    sequence with exactly ``count`` entries; every entry must be >= 1.
    The single validation point shared by ``RespectScheduler
    .schedule_batch`` and ``flow.compare.schedule_many``.
    """
    if hasattr(num_stages, "__iter__"):
        counts = [int(stages) for stages in num_stages]
        if len(counts) != count:
            raise SchedulingError(
                f"num_stages has {len(counts)} entries for {count} graphs"
            )
    else:
        counts = [int(num_stages)] * count
    if any(stages < 1 for stages in counts):
        raise SchedulingError("num_stages must be at least 1")
    return counts


def validate_sequence(graph: ComputationalGraph, order: Sequence[str]) -> None:
    """Ensure ``order`` is a permutation of the graph's nodes."""
    if len(order) != graph.num_nodes:
        raise SchedulingError(
            f"sequence length {len(order)} != |V| = {graph.num_nodes}"
        )
    seen = set()
    for name in order:
        if name not in graph:
            raise SchedulingError(f"sequence refers to unknown node {name!r}")
        if name in seen:
            raise SchedulingError(f"sequence repeats node {name!r}")
        seen.add(name)


def minimal_feasible_budget(
    mem_sizes: Sequence[int], num_stages: int
) -> int:
    """Smallest per-stage budget packing ``mem_sizes`` into ``num_stages``.

    Classic linear-partition bound via binary search over budgets with a
    greedy feasibility check that mirrors :func:`pack_sequence`'s stage
    advancement exactly.  The result is the optimal *contiguous* peak for
    this particular order.  Sizes must be non-negative.

    Every probed budget is at least the largest size, so a stage opened
    at position ``i`` takes exactly the following items whose running
    sum stays within the budget.  With non-negative sizes the prefix
    sums are non-decreasing, so the probe finds each stage's end with
    one ``bisect_right`` instead of walking the items.
    """
    if num_stages < 1:
        raise SchedulingError("num_stages must be at least 1")
    if min(mem_sizes, default=0) < 0:
        position = next(i for i, size in enumerate(mem_sizes) if size < 0)
        raise SchedulingError(
            f"size {mem_sizes[position]} at position {position} is negative"
        )
    prefix = list(accumulate(mem_sizes, initial=0))
    count = len(prefix) - 1
    low = max(mem_sizes) if count else 0
    high = prefix[-1]

    def fits(budget: int) -> bool:
        start = 0
        for _ in range(num_stages):
            # ``prefix[start + 1] <= prefix[start] + budget``, so the
            # search can start past the stage's first item.
            start = bisect_right(prefix, prefix[start] + budget, start + 2) - 1
            if start >= count:
                return True
        return False

    while low < high:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid + 1
    return low


def pack_sequence(
    graph: ComputationalGraph,
    order: Sequence[str],
    num_stages: int,
    budget_bytes: Optional[int] = None,
    budget_slack: Optional[float] = None,
    dependency_aware: bool = False,
) -> Schedule:
    """``rho``: pack a node sequence into ``num_stages`` pipeline stages.

    Walks ``order`` with a monotone stage pointer.  A node opens the next
    stage when the current stage's parameter bytes would exceed the
    budget.  The budget defaults to the *minimal feasible* one for this
    order (binary search — optimal contiguous segmentation); passing
    ``budget_slack`` instead uses the simpler fixed share
    ``total_param_bytes / num_stages * budget_slack``, and
    ``budget_bytes`` pins it outright.  The final stage absorbs any
    overflow so every node is placed.

    With ``dependency_aware=True`` a node is additionally never placed
    before the latest stage of its already-placed parents, which removes
    most post-processing repairs at the cost of less faithful packing.
    """
    validate_sequence(graph, order)
    if num_stages < 1:
        raise SchedulingError("num_stages must be at least 1")
    sizes = [graph.node(name).param_bytes for name in order]
    if min(sizes, default=0) < 0:
        # ``OpNode`` checks this at construction only; its fields stay
        # mutable, and the packing (and its budget search) needs it.
        name, size = next(
            (name, size) for name, size in zip(order, sizes) if size < 0
        )
        raise SchedulingError(f"node {name!r} has negative param_bytes {size}")
    if budget_bytes is None:
        if budget_slack is not None:
            ideal = graph.total_param_bytes / max(1, num_stages)
            budget_bytes = int(ideal * budget_slack)
        else:
            budget_bytes = minimal_feasible_budget(sizes, num_stages)
    if budget_bytes < 0:
        raise SchedulingError("budget_bytes must be non-negative")

    assignment: Dict[str, int] = {}
    stage = 0
    used = 0
    for name, size in zip(order, sizes):
        if (
            stage < num_stages - 1
            and used > 0
            and used + size > budget_bytes
        ):
            stage += 1
            used = 0
        target = stage
        if dependency_aware:
            parent_stages = [
                assignment[p] for p in graph.parents(name) if p in assignment
            ]
            if parent_stages:
                target = max(target, max(parent_stages))
            target = min(target, num_stages - 1)
            if target > stage:
                stage = target
                used = 0
        assignment[name] = target
        used += size
    return Schedule(graph, num_stages, assignment)


def schedule_to_sequence(schedule: Schedule) -> List[str]:
    """``gamma``: linearize an (exact) schedule into a label sequence.

    Delegates to :meth:`Schedule.to_sequence` — stage-major order with
    ASAP levels breaking ties inside a stage, so replaying the sequence
    through :func:`pack_sequence` reconstructs a schedule with the same
    stage boundaries (verified by round-trip tests).
    """
    return schedule.to_sequence()
