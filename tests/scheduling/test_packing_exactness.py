"""``rho`` packing and dependency repair against their previous versions.

``minimal_feasible_budget`` keeps its binary search, but its feasibility
probe now finds stage ends with prefix sums and ``bisect_right``, which
is the same greedy only for non-negative sizes; ``repair_dependencies``
skips its topological walk when nothing is violated.  This file keeps
the previous functions verbatim and checks the results are unchanged,
and that negative sizes, which the prefix sums cannot handle, are
refused.
"""

import random
from typing import Dict

import pytest

from repro.errors import SchedulingError
from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.postprocess import repair_dependencies
from repro.scheduling.schedule import Schedule
from repro.scheduling.sequence import (
    minimal_feasible_budget,
    pack_sequence,
    validate_sequence,
)

# ---------------------------------------------------------------------------
# The previous functions, kept verbatim as oracles.


def _previous_minimal_feasible_budget(mem_sizes, num_stages):
    if num_stages < 1:
        raise SchedulingError("num_stages must be at least 1")
    low = max(mem_sizes) if mem_sizes else 0
    high = sum(mem_sizes)

    def fits(budget: int) -> bool:
        stages = 1
        used = 0
        for size in mem_sizes:
            if used > 0 and used + size > budget:
                stages += 1
                used = 0
                if stages > num_stages:
                    return False
            used += size
        return True

    while low < high:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid + 1
    return low


def _previous_pack_sequence(
    graph,
    order,
    num_stages,
    budget_bytes=None,
    budget_slack=None,
    dependency_aware=False,
):
    validate_sequence(graph, order)
    if num_stages < 1:
        raise SchedulingError("num_stages must be at least 1")
    if budget_bytes is None:
        if budget_slack is not None:
            ideal = graph.total_param_bytes / max(1, num_stages)
            budget_bytes = int(ideal * budget_slack)
        else:
            budget_bytes = _previous_minimal_feasible_budget(
                [graph.node(n).param_bytes for n in order], num_stages
            )
    if budget_bytes < 0:
        raise SchedulingError("budget_bytes must be non-negative")

    assignment: Dict[str, int] = {}
    stage = 0
    used = 0
    for name in order:
        node = graph.node(name)
        if (
            stage < num_stages - 1
            and used > 0
            and used + node.param_bytes > budget_bytes
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
        used += node.param_bytes
    return Schedule(graph, num_stages, assignment)


def _previous_repair_dependencies(schedule):
    graph = schedule.graph
    assignment: Dict[str, int] = dict(schedule.assignment)
    for name in graph.topological_order():
        parents = graph.parents(name)
        if parents:
            floor = max(assignment[p] for p in parents)
            if assignment[name] < floor:
                assignment[name] = floor
    return Schedule(graph, schedule.num_stages, assignment)


# ---------------------------------------------------------------------------


def size_lists(seed):
    """Random non-negative size lists: zeros, runs of zeros, all-equal."""
    rng = random.Random(seed)
    lists = [[0], [5], [0, 0, 0], [7] * 9, [0, 3, 0, 0, 3, 0], [1, 0] * 6]
    for _ in range(150):
        length = rng.randint(1, 24)
        kind = rng.random()
        if kind < 0.2:
            lists.append([rng.choice((0, 4))] * length)
        elif kind < 0.5:
            lists.append([rng.choice((0, 0, 1, 2, 1000)) for _ in range(length)])
        else:
            lists.append([rng.randint(0, 10**rng.randint(1, 7)) for _ in range(length)])
    return lists


class TestMinimalFeasibleBudget:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_previous_for_every_stage_count(self, seed):
        for sizes in size_lists(seed):
            for stages in range(1, len(sizes) + 3):
                assert minimal_feasible_budget(
                    sizes, stages
                ) == _previous_minimal_feasible_budget(sizes, stages), (sizes, stages)

    def test_empty(self):
        assert minimal_feasible_budget([], 3) == 0

    def test_rejects_negative_size(self):
        with pytest.raises(SchedulingError, match="position 2 is negative"):
            minimal_feasible_budget([4, 0, -1, 3], 2)


class TestPackSequence:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"budget_slack": 1.05}, {"budget_bytes": 5000}, {"dependency_aware": True}],
        ids=["minimal", "slack", "fixed", "dependency-aware"],
    )
    def test_matches_previous(self, kwargs):
        rng = random.Random(9)
        for _ in range(40):
            graph = sample_synthetic_dag(
                num_nodes=rng.choice((10, 30, 60)), degree=3, seed=rng.getrandbits(32)
            )
            order = graph.topological_order()
            if rng.random() < 0.5:
                rng.shuffle(order)
            for stages in (1, 2, 4, 8):
                packed = pack_sequence(graph, order, stages, **kwargs)
                expected = _previous_pack_sequence(graph, order, stages, **kwargs)
                assert list(packed.assignment.items()) == list(
                    expected.assignment.items()
                )


class TestNegativeParamBytes:
    def test_pack_sequence_names_the_node(self, diamond_graph):
        # OpNode checks non-negativity at construction only.
        diamond_graph.node("c").param_bytes = -5
        order = diamond_graph.topological_order()
        for kwargs in ({}, {"budget_slack": 1.05}, {"budget_bytes": 1000}):
            with pytest.raises(SchedulingError, match="'c' has negative param_bytes"):
                pack_sequence(diamond_graph, order, 2, **kwargs)


def random_schedules(seed, count):
    """Random stage assignments: mostly with dependency violations."""
    rng = random.Random(seed)
    for _ in range(count):
        graph = sample_synthetic_dag(
            num_nodes=rng.choice((10, 30, 60)), degree=3, seed=rng.getrandbits(32)
        )
        stages = rng.randint(1, 6)
        yield Schedule(
            graph,
            stages,
            {name: rng.randrange(stages) for name in graph.node_names},
        )


class TestRepairDependencies:
    def test_matches_previous_on_violating_schedules(self):
        for schedule in random_schedules(5, 60):
            repaired = repair_dependencies(schedule)
            expected = _previous_repair_dependencies(schedule)
            assert repaired == expected
            assert list(repaired.assignment.items()) == list(
                expected.assignment.items()
            )

    def test_valid_schedule_comes_back_as_a_copy(self):
        for schedule in random_schedules(6, 30):
            valid = _previous_repair_dependencies(schedule)
            repaired = repair_dependencies(valid)
            assert repaired == valid
            assert repaired is not valid
            assert repaired.assignment is not valid.assignment
