"""Swap atomicity under concurrency: no request is ever served torn.

The contract of :meth:`SchedulingService.swap_scheduler`: every result —
submitted before, during, or after a hot-swap, from any number of
threads — is bit-identical to a direct call of *exactly one* of the two
policy versions, and requests submitted after the swap returns are
always served by the new version.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.service import SchedulingService

NUM_THREADS = 10
REQUESTS_PER_THREAD = 40
NUM_STAGES = 4


class VersionedScheduler:
    """Deterministic scheduler whose output encodes its version."""

    def __init__(self, version: int, delay_s: float = 0.0):
        self.version = version
        self.method_name = f"versioned_v{version}"
        self.delay_s = delay_s

    def _solve(self, graph, num_stages):
        # Version 1 fills stages forward, version 2 backward — trivially
        # distinguishable, deterministic, and valid stage ranges.
        names = graph.node_names
        assignment = {}
        for i, name in enumerate(names):
            stage = min(i * num_stages // len(names), num_stages - 1)
            if self.version == 2:
                stage = num_stages - 1 - stage
            assignment[name] = stage
        return ScheduleResult(
            Schedule(graph, num_stages, assignment),
            0.0001,
            self.method_name,
        )

    def schedule(self, graph, num_stages):
        if self.delay_s:
            time.sleep(self.delay_s)
        return self._solve(graph, num_stages)

    def schedule_batch(self, graphs, stage_counts):
        if self.delay_s:
            time.sleep(self.delay_s)
        return [self._solve(g, s) for g, s in zip(graphs, stage_counts)]


@pytest.fixture(scope="module")
def graphs():
    return [
        sample_synthetic_dag(num_nodes=12, degree=3, seed=seed)
        for seed in range(24)
    ]


@pytest.fixture(params=["single", "sharded"])
def make_service(request):
    """Build the single-worker service or the 4-shard tier around v1.

    The hammer contract is identical for both: per-(shard-)batch
    scheduler snapshots mean no request is ever served a torn mix of
    two policy versions, and a submit that strictly follows a completed
    ``swap_scheduler`` is always served by the new version (the sharded
    swap only returns once every shard runs it).
    """
    def build(scheduler):
        if request.param == "single":
            return SchedulingService(
                scheduler, cache_capacity=64, batch_window_s=0.001
            )
        return SchedulingService(
            scheduler,
            num_shards=4,
            cache_capacity=64,
            batch_window_s=0.001,
        )

    return build


def test_hammer_submit_across_hot_swap(graphs, make_service):
    """>= 8 threads hammering submit across a swap: never a torn result."""
    v1 = VersionedScheduler(1, delay_s=0.0005)
    v2 = VersionedScheduler(2, delay_s=0.0005)
    direct = {
        1: {id(g): v1.schedule(g, NUM_STAGES).schedule.assignment for g in graphs},
        2: {id(g): v2.schedule(g, NUM_STAGES).schedule.assignment for g in graphs},
    }
    assert all(direct[1][id(g)] != direct[2][id(g)] for g in graphs)

    service = make_service(v1)
    # Pre-swap sanity serves: guaranteed v1 (no swap has happened yet).
    for graph in graphs[:3]:
        assert (
            service.schedule(graph, NUM_STAGES).schedule.assignment
            == direct[1][id(graph)]
        )
    start = threading.Barrier(NUM_THREADS + 1)
    swapped = threading.Event()
    results = [[] for _ in range(NUM_THREADS)]

    def hammer(slot):
        start.wait()
        for i in range(REQUESTS_PER_THREAD):
            graph = graphs[(slot * 7 + i) % len(graphs)]
            # Sample the flag *before* submitting: when it is already
            # set, this submission strictly follows the completed swap
            # and must be served by v2.  (Sampling after submit would
            # race: the swap could land in between.)
            after_swap = swapped.is_set()
            future = service.submit(graph, NUM_STAGES)
            results[slot].append((graph, future, after_swap))

    with ThreadPoolExecutor(NUM_THREADS) as pool:
        workers = [pool.submit(hammer, slot) for slot in range(NUM_THREADS)]
        start.wait()
        time.sleep(0.01)  # let traffic build against v1
        service.swap_scheduler(v2)
        swapped.set()
        for worker in workers:
            worker.result()

    for slot_results in results:
        for graph, future, after_swap in slot_results:
            assignment = future.result(timeout=30).schedule.assignment
            if assignment == direct[1][id(graph)]:
                # A v1 answer must predate the completed swap.
                assert not after_swap, (
                    "request submitted after swap_scheduler returned was "
                    "served by the retired version"
                )
            elif assignment != direct[2][id(graph)]:
                raise AssertionError(
                    "served schedule matches neither policy version (torn)"
                )
    # Post-hammer serves are guaranteed v2 (swap completed long before).
    probe = graphs[-1]
    assert (
        service.schedule(probe, NUM_STAGES).schedule.assignment
        == direct[2][id(probe)]
    )
    service.close()


def test_sequential_serves_flip_exactly_at_swap(graphs):
    v1 = VersionedScheduler(1)
    v2 = VersionedScheduler(2)
    with SchedulingService(v1, batch_window_s=0.0) as service:
        before = service.schedule(graphs[0], NUM_STAGES)
        assert before.schedule.assignment == (
            v1.schedule(graphs[0], NUM_STAGES).schedule.assignment
        )
        old_key = service.swap_scheduler(v2)
        service.invalidate_options(old_key)
        after = service.schedule(graphs[0], NUM_STAGES)
        assert after.schedule.assignment == (
            v2.schedule(graphs[0], NUM_STAGES).schedule.assignment
        )
        assert after.extras["service"] == "versioned_v2"
        assert service.stats().swaps == 1


def test_swap_rejects_invalid_scheduler(graphs):
    from repro.errors import ServiceError

    with SchedulingService(VersionedScheduler(1)) as service:
        with pytest.raises(ServiceError):
            service.swap_scheduler(object())


def test_swap_on_closed_service_rejected(graphs):
    from repro.errors import ServiceError

    service = SchedulingService(VersionedScheduler(1))
    service.close()
    with pytest.raises(ServiceError):
        service.swap_scheduler(VersionedScheduler(2))
