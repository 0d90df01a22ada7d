"""Serving invariants, checked at one shard and at three.

Every test here runs against ``SchedulingService(num_shards=N)`` for
N in {1, 3}: one class serves both shapes, so one suite pins both.

* served == direct ``scheduler.schedule``, bit for bit, in-process and
  through a decode worker process;
* every admitted request is counted exactly once in
  ``respect_requests_total`` (degraded answers included);
* ``stats()`` totals equal the registry totals;
* serve-listener exceptions are counted (once each) and never fail a
  request;
* ``close()`` leaves no future pending;
* a hot swap never serves a torn mix of two scheduler versions;
* ``"block"`` admission never lets a shard's backlog pass its depth;
* a rejected construction acquires nothing (no store directory).
"""

import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServiceError
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.sampler import sample_synthetic_dag
from repro.obs import Telemetry
from repro.rl.respect import RespectScheduler
from repro.scheduling.heuristics import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.service import (
    CachedSchedule,
    DiskScheduleStore,
    ScheduleCache,
    SchedulingService,
)

NUM_STAGES = 3
SHARD_COUNTS = [1, 3]


class FakeScheduler:
    """Deterministic scheduler; ``version`` 2 fills stages backward."""

    def __init__(self, version: int = 1, gate: threading.Event = None):
        self.version = version
        self.method_name = f"fake_v{version}"
        self.gate = gate
        self.solves = 0
        self._lock = threading.Lock()

    def options_fingerprint(self):
        return f"fake-v{self.version}"

    def schedule(self, graph, num_stages):
        if self.gate is not None:
            self.gate.wait(timeout=10)
        with self._lock:
            self.solves += 1
        names = graph.node_names
        assignment = {}
        for i, name in enumerate(names):
            stage = min(i * num_stages // len(names), num_stages - 1)
            if self.version == 2:
                stage = num_stages - 1 - stage
            assignment[name] = stage
        return ScheduleResult(
            Schedule(graph, num_stages, assignment), 0.001, self.method_name
        )


def make_graphs(count, seed_base=0, num_nodes=10):
    return [
        sample_synthetic_dag(num_nodes=num_nodes, degree=3, seed=seed_base + i)
        for i in range(count)
    ]


def on_shard(service, shard_id, count, seed_base):
    """``count`` distinct graphs that route to ``shard_id``."""
    found = []
    seed = seed_base
    while len(found) < count:
        graph = sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
        if service.shard_index(graph) == shard_id:
            found.append(graph)
        seed += 1
    return found


@pytest.fixture(scope="module")
def respect():
    return RespectScheduler()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("decode_workers", [0, 1])
def test_served_equals_direct(respect, num_shards, decode_workers):
    graphs = make_graphs(6, seed_base=10, num_nodes=12)
    direct = [respect.schedule(g, 4) for g in graphs]
    # Duplicates make cache hits and coalescing occur too.
    workload = graphs * 2
    with SchedulingService(
        respect,
        num_shards=num_shards,
        decode_workers=decode_workers,
        batch_window_s=0.005,
    ) as service:
        with ThreadPoolExecutor(6) as pool:
            served = list(pool.map(lambda g: service.schedule(g, 4), workload))
        stats = service.stats()
    for graph, result in zip(workload, served):
        expected = direct[graphs.index(graph)]
        assert result.schedule.assignment == expected.schedule.assignment
        assert result.schedule.graph is graph
    worker_decoded = any(r.extras.get("worker_decode") for r in served)
    assert worker_decoded is (decode_workers > 0)
    assert stats.requests == len(workload)
    assert stats.scheduled_graphs == len(graphs)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_requests_counted_once_degraded_included(num_shards):
    telemetry = Telemetry()
    gate = threading.Event()
    service = SchedulingService(
        FakeScheduler(gate=gate),
        num_shards=num_shards,
        max_queue_depth=1,
        admission="degrade",
        batch_window_s=0.0,
        telemetry=telemetry,
    )
    try:
        saturating, *others = on_shard(service, 0, 4, seed_base=100)
        futures = [service.submit(saturating, NUM_STAGES)]
        # Shard 0 is at its depth: these three are answered inline.
        futures += [service.submit(g, NUM_STAGES) for g in others]
        assert all(f.done() for f in futures[1:])
        gate.set()
        # A repeat of the saturating graph: a hit or a coalesce.
        futures.append(service.submit(saturating, NUM_STAGES))
        results = [f.result(timeout=10) for f in futures]
        submits = len(futures)
        stats = service.stats()
    finally:
        gate.set()
        service.close()
    assert sum(bool(r.extras.get("degraded")) for r in results) == 3
    assert stats.degraded == 3
    registry = telemetry.registry
    assert registry.counter_total("respect_requests_total") == submits
    assert stats.requests == submits
    assert registry.counter_total("respect_requests_total", tier="front") == 3


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_stats_equal_registry_totals(num_shards):
    telemetry = Telemetry()
    graphs = make_graphs(10, seed_base=200)
    with SchedulingService(
        FakeScheduler(),
        num_shards=num_shards,
        telemetry=telemetry,
        batch_window_s=0.001,
    ) as service:
        def hammer(offset):
            for i in range(20):
                graph = graphs[(i + offset) % len(graphs)]
                service.submit(graph, NUM_STAGES).result(timeout=10)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()
    total = telemetry.registry.counter_total
    assert stats.requests == 100
    assert total("respect_requests_total") == stats.requests
    assert total("respect_cache_hits_total") == stats.cache_hits
    assert total("respect_coalesced_total") == stats.coalesced
    assert total("respect_batches_total") == stats.batches
    assert total("respect_scheduled_graphs_total") == stats.scheduled_graphs
    assert stats.cache_hits + stats.coalesced + stats.scheduled_graphs == 100
    assert (
        total("respect_tier_lookups_total")
        == stats.requests - stats.coalesced
    )
    assert (
        telemetry.registry.histogram_merged(
            "respect_request_latency_seconds"
        ).count
        == stats.requests
    )
    assert stats.num_shards == len(stats.per_shard) == num_shards
    for i, shard_stats in enumerate(stats.per_shard):
        assert total("respect_requests_total", shard=str(i)) == (
            shard_stats.requests
        )
    if num_shards == 1:
        # One shard: the service's store view is that shard's.
        assert stats.cache == stats.per_shard[0].cache
        assert stats.cache.hits == stats.cache_hits


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_listener_errors_counted_once(num_shards, caplog):
    telemetry = Telemetry()
    graphs = make_graphs(6, seed_base=300)
    observed = []

    def broken(graph, num_stages, result):
        raise RuntimeError("observer bug")

    with SchedulingService(
        FakeScheduler(), num_shards=num_shards, telemetry=telemetry
    ) as service:
        service.add_serve_listener(broken)
        service.add_serve_listener(lambda g, s, r: observed.append(g))
        with caplog.at_level(logging.ERROR, "repro.service.service"):
            results = service.schedule_batch(graphs + graphs[:2], NUM_STAGES)
        stats = service.stats()
    assert len(results) == len(observed) == len(graphs) + 2
    assert stats.listener_errors == len(graphs) + 2
    assert (
        telemetry.registry.counter_total("respect_listener_errors_total")
        == stats.listener_errors
    )
    logged = [r for r in caplog.records if "serve listener" in r.message]
    assert len(logged) == 1


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_close_leaves_no_pending_future(num_shards):
    gate = threading.Event()
    graphs = make_graphs(8, seed_base=400)
    service = SchedulingService(
        FakeScheduler(gate=gate), num_shards=num_shards, batch_window_s=0.0
    )
    futures = [service.submit(g, NUM_STAGES) for g in graphs]
    try:
        service.close(timeout=0.2)
        service.close(timeout=0.2)  # idempotent
        for future in futures:
            assert future.done()
            error = future.exception(timeout=1)
            assert error is None or isinstance(error, ServiceError)
        with pytest.raises(ServiceError):
            service.submit(graphs[0], NUM_STAGES)
    finally:
        gate.set()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_swap_is_atomic(num_shards):
    graphs = make_graphs(12, seed_base=500)
    v1, v2 = FakeScheduler(1), FakeScheduler(2)
    direct = {
        version.version: {
            id(g): version.schedule(g, NUM_STAGES).schedule.assignment
            for g in graphs
        }
        for version in (v1, v2)
    }
    swapped = threading.Event()
    outcomes = []
    lock = threading.Lock()
    service = SchedulingService(
        v1, num_shards=num_shards, cache_capacity=4, batch_window_s=0.001
    )

    def hammer(slot):
        for i in range(30):
            graph = graphs[(slot * 5 + i) % len(graphs)]
            after_swap = swapped.is_set()
            future = service.submit(graph, NUM_STAGES)
            with lock:
                outcomes.append((graph, future, after_swap))

    try:
        with ThreadPoolExecutor(6) as pool:
            workers = [pool.submit(hammer, slot) for slot in range(6)]
            old_key = service.swap_scheduler(v2)
            swapped.set()
            for worker in workers:
                worker.result()
        assert old_key == "fake-v1"
        for graph, future, after_swap in outcomes:
            result = future.result(timeout=10)
            assignment = result.schedule.assignment
            if assignment == direct[1][id(graph)]:
                assert not after_swap
                assert result.extras["service"] == "fake_v1"
            else:
                assert assignment == direct[2][id(graph)], "torn schedule"
                assert result.extras["service"] == "fake_v2"
        assert service.stats().swaps == 1
        assert all(shard.scheduler is v2 for shard in service.shards)
    finally:
        service.close()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_block_admission_bounds_backlog(num_shards):
    graphs = make_graphs(24, seed_base=700)
    depth = 2
    backlogs = []
    service = None

    class Probe(FakeScheduler):
        def schedule(self, graph, num_stages):
            backlogs.append(max(shard.backlog() for shard in service.shards))
            time.sleep(0.001)
            return super().schedule(graph, num_stages)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        service = SchedulingService(
            Probe(),
            num_shards=num_shards,
            max_queue_depth=depth,
            batch_window_s=0.0,
        )
        with service, ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(service.schedule, graph, NUM_STAGES)
                for graph in graphs
            ]
            results = [future.result(timeout=30) for future in futures]
            stats = service.stats()
    finally:
        sys.setswitchinterval(interval)
    assert backlogs and max(backlogs) <= depth
    assert [r.schedule.graph for r in results] == graphs
    assert stats.requests == len(graphs)
    assert stats.shed == stats.degraded == 0


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "bad",
    [
        {"portfolio": object()},
        {"scheduler_factory": lambda: object()},
        {"scheduler": object()},
        {"scheduler": ListScheduler(), "decode_workers": 1, "decode_pool": 1},
    ],
    ids=["portfolio", "factory", "scheduler", "pool"],
)
def test_rejected_construction_acquires_nothing(tmp_path, num_shards, bad):
    store_dir = tmp_path / "store"
    kwargs = {"scheduler": ListScheduler(), "admission": "degrade"}
    if "scheduler_factory" in bad:
        kwargs.pop("scheduler")
    kwargs.update(bad)
    with pytest.raises(ServiceError):
        SchedulingService(
            num_shards=num_shards, store_dir=str(store_dir), **kwargs
        )
    assert not store_dir.exists()


def test_one_shard_reads_the_single_service_layout(tmp_path):
    """A directory holding ``"default"``-namespace entries — the layout
    a one-shard service has always written — is served with zero solves."""
    graphs = make_graphs(5, seed_base=600)
    writer = FakeScheduler()
    with DiskScheduleStore(tmp_path) as disk:
        for graph in graphs:
            solved = writer.schedule(graph, NUM_STAGES)
            disk.put(
                "default",
                ScheduleCache.make_key(
                    graph_fingerprint(graph), NUM_STAGES, "fake-v1"
                ),
                CachedSchedule(
                    assignment=dict(solved.schedule.assignment),
                    num_stages=NUM_STAGES,
                    method=solved.method,
                    objective=solved.objective,
                    status=solved.status,
                    solve_time=solved.solve_time,
                ),
            )
    reader = FakeScheduler()
    with SchedulingService(reader, store_dir=str(tmp_path)) as service:
        assert service.shard_namespace(0) == "default"
        served = [service.schedule(g, NUM_STAGES) for g in graphs]
        assert service.stats().cache.disk_hits == len(graphs)
    assert reader.solves == 0
    for graph, result in zip(graphs, served):
        assert result.extras["cache_hit"] is True
        assert result.schedule.assignment == (
            writer.schedule(graph, NUM_STAGES).schedule.assignment
        )
