"""Tests for the scheduling service: caching, coalescing, micro-batching.

Logic tests use an instrumented fake scheduler for full control over
call counts and timing; the equivalence-under-concurrency tests at the
bottom drive the real pretrained :class:`RespectScheduler`.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import SchedulingError, ServiceError
from repro.graphs.sampler import sample_synthetic_dag
from repro.rl.respect import RespectScheduler
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.scheduling.heuristics import ListScheduler
from repro.service import (
    DiskScheduleStore,
    ScheduleCache,
    SchedulingService,
    TieredScheduleStore,
    scheduler_options_key,
)


class FakeScheduler:
    """Deterministic scheduler that counts and optionally delays calls."""

    method_name = "fake"

    def __init__(self, delay: float = 0.0, batched: bool = True):
        self.delay = delay
        self.schedule_calls = 0
        self.batch_calls = 0
        self.batch_sizes = []
        self._lock = threading.Lock()
        if not batched:
            self.schedule_batch = None  # not callable -> sequential path

    def _solve(self, graph, num_stages):
        assignment = {
            name: min(i * num_stages // graph.num_nodes, num_stages - 1)
            for i, name in enumerate(graph.node_names)
        }
        return ScheduleResult(
            Schedule(graph, num_stages, assignment), 0.001, self.method_name
        )

    def schedule(self, graph, num_stages):
        with self._lock:
            self.schedule_calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self._solve(graph, num_stages)

    def schedule_batch(self, graphs, stage_counts):
        with self._lock:
            self.batch_calls += 1
            self.batch_sizes.append(len(graphs))
        if self.delay:
            time.sleep(self.delay)
        return [self._solve(g, s) for g, s in zip(graphs, stage_counts)]


@pytest.fixture
def graphs():
    return [
        sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
        for seed in range(6)
    ]


class TestServiceBasics:
    def test_result_matches_direct_and_binds_callers_graph(self, graphs):
        scheduler = FakeScheduler()
        direct = scheduler.schedule(graphs[0], 3)
        with SchedulingService(scheduler) as service:
            served = service.schedule(graphs[0], 3)
        assert served.schedule.assignment == direct.schedule.assignment
        assert served.schedule.graph is graphs[0]

    def test_cache_hit_skips_scheduler(self, graphs):
        scheduler = FakeScheduler()
        with SchedulingService(scheduler, batch_window_s=0.0) as service:
            service.schedule(graphs[0], 3)
            solves = scheduler.schedule_calls + scheduler.batch_calls
            again = service.schedule(graphs[0], 3)
            assert scheduler.schedule_calls + scheduler.batch_calls == solves
            assert again.extras["cache_hit"] is True
            assert service.stats().cache_hits == 1

    def test_content_identical_graph_hits_cache(self, graphs):
        twin = sample_synthetic_dag(num_nodes=10, degree=3, seed=0)
        scheduler = FakeScheduler()
        with SchedulingService(scheduler) as service:
            first = service.schedule(graphs[0], 3)
            second = service.schedule(twin, 3)
        assert second.extras["cache_hit"] is True
        assert second.schedule.assignment == first.schedule.assignment
        # Each caller gets a schedule bound to its own graph object.
        assert first.schedule.graph is graphs[0]
        assert second.schedule.graph is twin

    def test_stage_counts_are_separate_entries(self, graphs):
        scheduler = FakeScheduler()
        with SchedulingService(scheduler) as service:
            three = service.schedule(graphs[0], 3)
            four = service.schedule(graphs[0], 4)
        assert three.schedule.num_stages == 3
        assert four.schedule.num_stages == 4
        assert four.extras["cache_hit"] is False

    def test_invalid_stage_count_rejected(self, graphs):
        with SchedulingService(FakeScheduler()) as service:
            with pytest.raises(SchedulingError):
                service.submit(graphs[0], 0)

    def test_scheduler_without_schedule_rejected(self):
        with pytest.raises(ServiceError):
            SchedulingService(object())

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            SchedulingService(FakeScheduler(), max_batch_size=0)
        with pytest.raises(ServiceError):
            SchedulingService(FakeScheduler(), batch_window_s=-1.0)

    def test_closed_service_rejects_submits(self, graphs):
        service = SchedulingService(FakeScheduler())
        service.schedule(graphs[0], 3)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(graphs[0], 3)
        with pytest.raises(ServiceError):
            service.submit(graphs[1], 3)  # miss path raises too

    def test_scheduler_exception_propagates_and_recovers(self, graphs):
        class Flaky(FakeScheduler):
            def __init__(self):
                super().__init__()
                self.fail = True

            def schedule_batch(self, graphs, stage_counts):
                if self.fail:
                    raise SchedulingError("boom")
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                if self.fail:
                    raise SchedulingError("boom")
                return super().schedule(graph, num_stages)

        flaky = Flaky()
        with SchedulingService(flaky, batch_window_s=0.0) as service:
            future = service.submit(graphs[0], 3)
            with pytest.raises(SchedulingError):
                future.result(timeout=5)
            flaky.fail = False
            # The failed key left no stale in-flight entry behind.
            result = service.submit(graphs[0], 3).result(timeout=5)
            assert result.schedule.assignment

    def test_sequential_fallback_without_schedule_batch(self, graphs):
        scheduler = FakeScheduler(batched=False)
        with SchedulingService(scheduler, batch_window_s=0.01) as service:
            results = service.schedule_batch(graphs, 3)
        assert len(results) == len(graphs)
        assert scheduler.schedule_calls == len(graphs)


class TestStoreArguments:
    def test_store_and_store_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ServiceError, match="not both"):
            SchedulingService(
                FakeScheduler(), stores=[TieredScheduleStore()], store_dir=tmp_path
            )

    def test_store_must_be_a_tiered_store(self, tmp_path):
        with pytest.raises(ServiceError, match="TieredScheduleStore"):
            SchedulingService(FakeScheduler(), stores=[ScheduleCache(8)])
        with DiskScheduleStore(tmp_path) as disk:
            with pytest.raises(ServiceError, match="TieredScheduleStore"):
                SchedulingService(FakeScheduler(), stores=[disk])

    def test_caller_owned_store_is_mounted_as_is(self, graphs):
        store = TieredScheduleStore(memory_capacity=4)
        with SchedulingService(FakeScheduler(), stores=[store]) as service:
            assert service.shards[0].cache is store
            service.schedule(graphs[0], 3)
        assert len(store) == 1

    def test_memory_only_counters_match_a_bare_lru(self, graphs):
        # Pinned from the service's previous memory-only cache (a bare
        # ScheduleCache): LRU of 2 over this sequence gives 2 hits, 7
        # misses and 5 evictions, then invalidation drops the 2 live
        # entries and one more miss re-fills one.
        order = [0, 0, 1, 2, 0, 3, 1, 1, 2]
        scheduler = ListScheduler()
        with SchedulingService(
            scheduler, cache_capacity=2, batch_window_s=0.0
        ) as service:
            for i in order:
                service.schedule(graphs[i], 3)
            options_key = scheduler_options_key(scheduler)
            assert service.invalidate_options(options_key) == 2
            service.schedule(graphs[2], 3)
            cache = service.stats().cache
            registry = service.telemetry.registry
        assert (
            cache.hits, cache.misses, cache.size, cache.evictions,
            cache.invalidations, cache.capacity,
        ) == (2, 8, 1, 5, 2, 2)
        assert {
            tier: registry.counter_total("respect_tier_lookups_total", tier=tier)
            for tier in ("memory", "disk", "miss")
        } == {"memory": 2, "disk": 0, "miss": 8}
        assert service.schedule_store is None


class TestMicroBatching:
    def test_burst_is_aggregated(self, graphs):
        scheduler = FakeScheduler()
        with SchedulingService(
            scheduler, max_batch_size=len(graphs), batch_window_s=0.05
        ) as service:
            results = service.schedule_batch(graphs, 3)
        assert len(results) == len(graphs)
        assert scheduler.batch_calls >= 1
        assert max(scheduler.batch_sizes) > 1
        stats = service.stats()
        assert stats.mean_batch_size > 1.0
        assert stats.scheduled_graphs == len(graphs)

    def test_per_graph_stage_counts(self, graphs):
        counts = [2 + (i % 3) for i in range(len(graphs))]
        with SchedulingService(FakeScheduler()) as service:
            results = service.schedule_batch(graphs, counts)
        for result, stages in zip(results, counts):
            assert result.schedule.num_stages == stages

    def test_max_batch_size_respected(self, graphs):
        scheduler = FakeScheduler()
        with SchedulingService(
            scheduler, max_batch_size=2, batch_window_s=0.05
        ) as service:
            service.schedule_batch(graphs, 3)
        assert max(scheduler.batch_sizes, default=1) <= 2

    def test_coalescing_shares_one_solve(self, graphs):
        scheduler = FakeScheduler(delay=0.05)
        with SchedulingService(scheduler, batch_window_s=0.0) as service:
            with ThreadPoolExecutor(8) as pool:
                futures = [
                    pool.submit(service.schedule, graphs[0], 3)
                    for _ in range(8)
                ]
                results = [f.result(timeout=10) for f in futures]
        assignments = {tuple(sorted(r.schedule.assignment.items()))
                       for r in results}
        assert len(assignments) == 1
        stats = service.stats()
        # One solve total: everyone else hit the cache or coalesced.
        assert stats.scheduled_graphs == 1
        assert stats.cache_hits + stats.coalesced == 7

    def test_stats_latency_fields_populated(self, graphs):
        with SchedulingService(FakeScheduler()) as service:
            service.schedule_batch(graphs, 3)
            stats = service.stats()
        assert stats.requests == len(graphs)
        assert 0.0 < stats.latency_p50_s <= stats.latency_p99_s
        assert stats.latency_mean_s > 0.0
        assert stats.cache.size == len(graphs)


class TestServeListenerErrors:
    def test_listener_exception_counted_logged_and_request_served(
        self, graphs, caplog
    ):
        """Regression: listener exceptions used to vanish without trace.

        The drift/adaptation loop attaches a serve listener; a throwing
        listener must never fail the request, but must be counted in
        ``ServiceStats.listener_errors`` and logged (first occurrence).
        """
        import logging

        observed = []

        def broken(graph, num_stages, result):
            raise RuntimeError("observer bug")

        def healthy(graph, num_stages, result):
            observed.append(result)

        with SchedulingService(FakeScheduler()) as service:
            service.add_serve_listener(broken)
            service.add_serve_listener(healthy)
            with caplog.at_level(logging.ERROR, "repro.service.service"):
                results = service.schedule_batch(graphs[:3], 3)
            # every request was served despite the broken listener...
            assert len(results) == 3
            # ...the healthy listener still saw every serve...
            assert len(observed) == 3
            stats = service.stats()
        # ...every swallowed exception is counted...
        assert stats.listener_errors == 3
        # ...and exactly the first one is logged, with its traceback.
        errors = [r for r in caplog.records if "serve listener" in r.message]
        assert len(errors) == 1
        assert "observer bug" in errors[0].exc_text

    def test_cache_hit_path_counts_listener_errors_too(self, graphs):
        def broken(graph, num_stages, result):
            raise ValueError("nope")

        with SchedulingService(FakeScheduler()) as service:
            service.schedule(graphs[0], 3)  # cold miss, no listener yet
            service.add_serve_listener(broken)
            hit = service.schedule(graphs[0], 3)
            assert hit.extras["cache_hit"] is True
            assert service.stats().listener_errors == 1


class TestCloseSemantics:
    def test_close_fails_pending_futures(self, graphs):
        """Regression: close() used to strand unsolved futures forever."""
        release = threading.Event()

        class Stuck(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10.0)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10.0)
                return super().schedule(graph, num_stages)

        service = SchedulingService(Stuck(), batch_window_s=0.0)
        futures = [service.submit(g, 3) for g in graphs]
        try:
            # The worker is stuck mid-solve; close must not hang, and no
            # future may be left pending after it returns.
            service.close(timeout=0.2)
            for future in futures:
                assert future.done()
                exc = future.exception(timeout=1)
                if exc is not None:
                    assert isinstance(exc, ServiceError)
                    assert "closed" in str(exc)
        finally:
            release.set()

    def test_close_drains_accepted_work_given_time(self, graphs):
        scheduler = FakeScheduler(delay=0.01)
        service = SchedulingService(scheduler, batch_window_s=0.05)
        futures = [service.submit(g, 3) for g in graphs]
        service.close(timeout=10.0)
        # A healthy worker finishes accepted work before close returns —
        # results, not ServiceError.
        for graph, future in zip(graphs, futures):
            assert future.result(timeout=1).schedule.graph is graph

    def test_submit_racing_close_never_hangs(self, graphs):
        """Any submit concurrent with close() either raises ServiceError
        or returns a future that resolves promptly — never a hang."""
        for attempt in range(5):
            scheduler = FakeScheduler(delay=0.002)
            service = SchedulingService(scheduler, batch_window_s=0.001)
            barrier = threading.Barrier(3)
            outcomes = []

            def submitter():
                barrier.wait()
                for graph in graphs:
                    try:
                        outcomes.append(service.submit(graph, 3))
                    except ServiceError:
                        outcomes.append(None)

            def closer():
                barrier.wait()
                time.sleep(0.001 * (attempt % 3))
                service.close(timeout=0.05)

            threads = [
                threading.Thread(target=submitter),
                threading.Thread(target=submitter),
                threading.Thread(target=closer),
            ]
            barrier.reset()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            service.close(timeout=1.0)  # settle any straggler work
            for future in outcomes:
                if future is None:
                    continue  # submit itself raised ServiceError: fine
                # Accepted futures must resolve (result or ServiceError),
                # never hang.
                try:
                    future.result(timeout=5)
                except ServiceError:
                    pass

    def test_close_is_idempotent(self, graphs):
        service = SchedulingService(FakeScheduler())
        service.schedule(graphs[0], 3)
        service.close()
        service.close()  # second close is a no-op, not an error
        service.close(timeout=None)
        with pytest.raises(ServiceError):
            service.submit(graphs[0], 3)

    def test_context_manager_after_explicit_close(self, graphs):
        service = SchedulingService(FakeScheduler())
        with service:
            service.schedule(graphs[0], 3)
            service.close()
        # __exit__ closed an already-closed service: still fine.


class TestWorkerLifecycle:
    def test_idle_worker_retires_and_restarts(self, graphs, monkeypatch):
        from repro.service import service as service_module

        monkeypatch.setattr(service_module, "_WORKER_IDLE_S", 0.05)
        service = SchedulingService(FakeScheduler(), batch_window_s=0.0)
        try:
            service.schedule(graphs[0], 3)
            deadline = time.time() + 2.0
            shard = service.shards[0]
            while shard._worker is not None and time.time() < deadline:
                time.sleep(0.01)
            assert shard._worker is None  # retired while idle
            # The next miss restarts a worker transparently.
            result = service.schedule(graphs[1], 3)
            assert result.schedule.graph is graphs[1]
        finally:
            service.close()

    def test_abandoned_service_is_garbage_collected(self, graphs, monkeypatch):
        # Regression: the worker thread's reference used to keep an
        # unclosed service alive forever (one leaked polling thread per
        # serve_methods factory call).
        import gc
        import weakref

        from repro.service import service as service_module

        monkeypatch.setattr(service_module, "_WORKER_IDLE_S", 0.05)
        service = SchedulingService(FakeScheduler(), batch_window_s=0.0)
        service.schedule(graphs[0], 3)
        ref = weakref.ref(service)
        deadline = time.time() + 2.0
        shard = service.shards[0]
        while shard._worker is not None and time.time() < deadline:
            time.sleep(0.01)
        assert shard._worker is None
        del service, shard
        gc.collect()
        assert ref() is None


class TestOptionsKey:
    def test_fallback_distinguishes_scalar_options(self):
        a, b = FakeScheduler(), FakeScheduler()
        assert scheduler_options_key(a) == scheduler_options_key(b)
        b.delay = 1.0
        assert scheduler_options_key(a) != scheduler_options_key(b)

    def test_fallback_object_options_never_alias(self):
        # Object-valued options (e.g. a profiler hook) are keyed by
        # identity: distinct objects must not share cache entries.
        a, b = FakeScheduler(), FakeScheduler()
        a.profiler = object()
        b.profiler = object()
        assert scheduler_options_key(a) != scheduler_options_key(b)
        b.profiler = a.profiler
        assert scheduler_options_key(a) == scheduler_options_key(b)

    def test_respect_options_fingerprint_covers_packer_options(self):
        base = RespectScheduler()
        slacked = RespectScheduler(policy=base.policy, budget_slack=1.2)
        siblings = RespectScheduler(policy=base.policy, enforce_siblings=True)
        keys = {
            base.options_fingerprint(),
            slacked.options_fingerprint(),
            siblings.options_fingerprint(),
        }
        assert len(keys) == 3
        # Same policy + same options -> same key (memoized and stable).
        again = RespectScheduler(policy=base.policy)
        assert again.options_fingerprint() == base.options_fingerprint()
        assert scheduler_options_key(base) == base.options_fingerprint()

    def test_respect_fingerprint_covers_logit_clip(self):
        from repro.embedding.features import EmbeddingConfig
        from repro.rl.ptrnet import PointerNetworkPolicy

        dim = EmbeddingConfig().feature_dim
        clipped = PointerNetworkPolicy(dim, hidden_size=8, logit_clip=10.0,
                                       seed=0)
        unclipped = PointerNetworkPolicy(dim, hidden_size=8, logit_clip=0.0,
                                         seed=0)
        # Same seed -> identical weights; only the clip constant differs,
        # and it changes greedy decoding, so the keys must differ.
        assert (
            RespectScheduler(policy=clipped).options_fingerprint()
            != RespectScheduler(policy=unclipped).options_fingerprint()
        )

    def test_respect_fingerprint_frozen_against_policy_drift(self):
        from repro.embedding.features import EmbeddingConfig
        from repro.rl.ptrnet import PointerNetworkPolicy

        dim = EmbeddingConfig().feature_dim
        p1 = PointerNetworkPolicy(dim, hidden_size=8, seed=0)
        p2 = PointerNetworkPolicy(dim, hidden_size=8, seed=0)
        s1 = RespectScheduler(policy=p1)
        s2 = RespectScheduler(policy=p2)
        # Training the live policy after construction must not change
        # the key: scheduling uses the clone frozen at __init__.
        p2.w_emb.value += 1.0
        assert s1.options_fingerprint() == s2.options_fingerprint()


class TestRespectEquivalence:
    @pytest.fixture(scope="class")
    def respect(self):
        return RespectScheduler()

    def test_served_equals_direct_under_concurrency(self, respect):
        graphs = [
            sample_synthetic_dag(num_nodes=12, degree=3, seed=seed)
            for seed in range(8)
        ]
        direct = [respect.schedule(g, 4) for g in graphs]
        # Duplicate the workload so cache hits and coalescing both occur.
        workload = graphs * 3
        with SchedulingService(
            respect, max_batch_size=8, batch_window_s=0.01
        ) as service:
            with ThreadPoolExecutor(12) as pool:
                futures = [
                    pool.submit(service.schedule, g, 4) for g in workload
                ]
                served = [f.result(timeout=60) for f in futures]
            stats = service.stats()
        for graph, result in zip(workload, served):
            expected = direct[graphs.index(graph)]
            assert result.schedule.assignment == expected.schedule.assignment
            assert result.schedule.graph is graph
        assert stats.requests == len(workload)
        assert stats.cache_hits + stats.coalesced > 0
        assert stats.scheduled_graphs == len(graphs)

    def test_shared_cache_requires_matching_options(self, respect):
        graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=1)
        store = TieredScheduleStore(memory_capacity=8)
        with SchedulingService(respect, stores=[store]) as service:
            service.schedule(graph, 4)
        other = RespectScheduler(policy=respect.policy, budget_slack=1.5)
        with SchedulingService(other, stores=[store]) as service:
            result = service.schedule(graph, 4)
        # Different packer options never alias the first entry.
        assert result.extras["cache_hit"] is False
        assert len(store) == 2
