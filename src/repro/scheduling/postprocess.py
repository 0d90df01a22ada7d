"""Post-inference processing (Sec. III, "Post-Inference Processing").

RL output sequences are not guaranteed to respect domain constraints, so
the deployment stage applies a deterministic repair with minimum changes
to the RL solution:

* **dependency repair** — any node scheduled before one of its parents is
  pushed forward to its parent's stage;
* **sibling rule** (optional) — Edge TPU deployment requires the children
  of a node to share a pipeline stage; offending children are moved to
  the earliest predicted stage among them.

Both passes are pure functions returning new :class:`Schedule` objects.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SchedulingError
from repro.scheduling.schedule import Schedule

_MAX_SIBLING_ROUNDS = 50


def repair_dependencies(schedule: Schedule) -> Schedule:
    """Push nodes forward until every edge satisfies ``stage(u) <= stage(v)``.

    Processing in topological order guarantees a single pass suffices and
    that every node moves the minimum distance forward (the paper's
    "simply pushing the involved node forward").  A schedule without a
    violation (every topologically constrained decode) comes back as a
    copy without the walk.
    """
    if schedule.is_valid():
        return schedule.copy()
    graph = schedule.graph
    assignment: Dict[str, int] = dict(schedule.assignment)
    for name in graph.topological_order():
        parents = graph.parents(name)
        if parents:
            floor = max(assignment[p] for p in parents)
            if assignment[name] < floor:
                assignment[name] = floor
    return Schedule(graph, schedule.num_stages, assignment)


def enforce_sibling_rule(schedule: Schedule, max_rounds: int = _MAX_SIBLING_ROUNDS) -> Schedule:
    """Move every node's children to the earliest common feasible stage.

    The paper assigns sibling groups "to the earliest predicted stage";
    naively that can sit before a child's own parents, so the target is
    clamped to each child's dependency floor (the latest stage among its
    parents).  Pulling children earlier never violates descendants, and
    pushes are followed by a dependency repair; the pass iterates to a
    fixed point.
    """
    graph = schedule.graph
    current = schedule
    order = graph.topological_order()
    for _ in range(max_rounds):
        assignment = dict(current.assignment)
        changed = False
        for name in order:
            children = graph.children(name)
            if len(children) < 2:
                continue
            stages = {assignment[c] for c in children}
            floors = [
                max((assignment[p] for p in graph.parents(c)), default=0)
                for c in children
            ]
            target = max(min(stages), max(floors))
            for child in children:
                if assignment[child] != target:
                    assignment[child] = target
                    changed = True
        if not changed:
            return current
        current = repair_dependencies(
            Schedule(graph, current.num_stages, assignment)
        )
    if not current.is_valid() or current.sibling_violations():
        raise SchedulingError("sibling-rule enforcement failed to converge")
    return current


def postprocess_schedule(schedule: Schedule, enforce_siblings: bool = False) -> Schedule:
    """Full post-inference pipeline: dependency repair (+ sibling rule)."""
    repaired = repair_dependencies(schedule)
    if enforce_siblings:
        repaired = enforce_sibling_rule(repaired)
    return repaired
