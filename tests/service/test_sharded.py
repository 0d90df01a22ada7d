"""Sharded serving (``SchedulingService(num_shards=N)``): routing, admission,
async facade, lifecycle.

Logic tests run an instrumented fake scheduler (full control of timing
and call counts); the promotion/hot-swap integration with the real
pretrained policy lives in ``tests/online/test_hot_swap.py``.
"""

import asyncio
import threading
import time
from collections import Counter

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.heuristics import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.service import (
    ScheduleCache,
    SchedulingService,
    TieredScheduleStore,
    build_hash_ring,
    shard_for_fingerprint,
)

NUM_STAGES = 3


class FakeScheduler:
    """Deterministic scheduler that counts and optionally delays calls."""

    method_name = "fake"

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.schedule_calls = 0
        self.batch_calls = 0
        self._lock = threading.Lock()

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
        if self.delay:
            time.sleep(self.delay * len(graphs))
        return [self._solve(g, s) for g, s in zip(graphs, stage_counts)]


@pytest.fixture
def graphs():
    return [
        sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
        for seed in range(16)
    ]


class TestHashRing:
    def test_ring_is_deterministic(self):
        assert build_hash_ring(4) == build_hash_ring(4)
        fp = "ab" * 32
        ring = build_hash_ring(4)
        assert shard_for_fingerprint(fp, ring) == shard_for_fingerprint(
            fp, build_hash_ring(4)
        )

    def test_every_shard_owns_a_fair_slice(self):
        ring = build_hash_ring(4)
        counts = Counter(
            shard_for_fingerprint(f"fingerprint-{i}", ring)
            for i in range(4096)
        )
        assert set(counts) == {0, 1, 2, 3}
        for shard, count in counts.items():
            # Virtual nodes keep the spread well within 2x of uniform.
            assert 4096 / 8 < count < 4096 / 2, (shard, counts)

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        """Consistent hashing: 4 -> 5 shards remaps ~1/5, not ~4/5."""
        ring4, ring5 = build_hash_ring(4), build_hash_ring(5)
        keys = [f"graph-{i}" for i in range(4096)]
        moved = sum(
            shard_for_fingerprint(k, ring4) != shard_for_fingerprint(k, ring5)
            for k in keys
        )
        assert moved / len(keys) < 0.45  # expected ~0.20

    def test_invalid_ring_parameters_rejected(self):
        with pytest.raises(ServiceError):
            build_hash_ring(0)
        with pytest.raises(ServiceError):
            build_hash_ring(2, virtual_nodes=0)


class TestConstruction:
    def test_exactly_one_scheduler_source(self):
        with pytest.raises(ServiceError):
            SchedulingService(num_shards=2)
        with pytest.raises(ServiceError):
            SchedulingService(
                FakeScheduler(), scheduler_factory=FakeScheduler, num_shards=2
            )

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            SchedulingService(FakeScheduler(), num_shards=0)
        with pytest.raises(ServiceError):
            SchedulingService(FakeScheduler(), num_shards=2, max_queue_depth=0)
        with pytest.raises(ServiceError):
            SchedulingService(FakeScheduler(), num_shards=2, admission="panic")

    def test_stores_must_be_one_tiered_store_per_shard(self):
        with pytest.raises(ServiceError, match="one entry per shard"):
            SchedulingService(
                FakeScheduler(), num_shards=2, stores=[TieredScheduleStore()]
            )
        with pytest.raises(ServiceError, match="TieredScheduleStore"):
            SchedulingService(
                FakeScheduler(),
                num_shards=2,
                stores=[ScheduleCache(8), ScheduleCache(8)],
            )


class TestRoutingAndEquivalence:
    def test_sharded_equals_single_shard_service(self, graphs):
        fake = FakeScheduler()
        with SchedulingService(fake) as single:
            one = single.schedule_batch(graphs, NUM_STAGES)
        with SchedulingService(fake, num_shards=4) as sharded:
            four = sharded.schedule_batch(graphs, NUM_STAGES)
        for a, b in zip(one, four):
            assert a.schedule.assignment == b.schedule.assignment

    def test_fingerprint_routing_gives_cache_affinity(self, graphs):
        fake = FakeScheduler()
        with SchedulingService(fake, num_shards=4) as service:
            cold = service.schedule(graphs[0], NUM_STAGES)
            warm = service.schedule(graphs[0], NUM_STAGES)
            assert cold.extras["cache_hit"] is False
            assert warm.extras["cache_hit"] is True
            # Exactly the owning shard saw both requests.
            shard_id = service.shard_index(graphs[0])
            per_shard = service.stats().per_shard
            assert per_shard[shard_id].requests == 2
            assert per_shard[shard_id].cache_hits == 1
            assert sum(s.requests for s in per_shard) == 2

    def test_content_identical_graphs_route_identically(self, graphs):
        with SchedulingService(FakeScheduler(), num_shards=4) as svc:
            twin = sample_synthetic_dag(num_nodes=10, degree=3, seed=0)
            assert graph_fingerprint(twin) == graph_fingerprint(graphs[0])
            assert svc.shard_index(twin) == svc.shard_index(graphs[0])
            svc.schedule(graphs[0], NUM_STAGES)
            assert svc.schedule(twin, NUM_STAGES).extras["cache_hit"] is True

    def test_requests_spread_across_shards(self):
        many = [
            sample_synthetic_dag(num_nodes=8, degree=2, seed=seed)
            for seed in range(64)
        ]
        with SchedulingService(FakeScheduler(), num_shards=4) as svc:
            svc.schedule_batch(many, NUM_STAGES)
            used = [s.requests for s in svc.stats().per_shard]
        assert sum(used) == 64
        assert sum(1 for u in used if u > 0) >= 3  # not all on one shard

    def test_scheduler_factory_one_instance_per_shard(self, graphs):
        made = []

        def factory():
            made.append(FakeScheduler())
            return made[-1]

        with SchedulingService(
            scheduler_factory=factory, num_shards=3
        ) as service:
            service.schedule_batch(graphs, NUM_STAGES)
        assert len(made) == 3
        assert len({id(s.scheduler) for s in service.shards}) == 3


class TestAdmission:
    def test_block_policy_backpressures_and_loses_nothing(self, graphs):
        fake = FakeScheduler(delay=0.003)
        with SchedulingService(
            fake,
            num_shards=2,
            max_queue_depth=1,
            admission="block",
            batch_window_s=0.0,
        ) as service:
            direct = [fake.schedule(g, NUM_STAGES) for g in graphs]
            results = [None] * len(graphs)

            def client(i):
                results[i] = service.schedule(graphs[i], NUM_STAGES)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(graphs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            stats = service.stats()
        assert stats.blocked > 0  # depth 1 under 16 clients must wait
        assert stats.shed == 0 and stats.degraded == 0
        for d, r in zip(direct, results):
            assert r.schedule.assignment == d.schedule.assignment

    def test_shed_policy_raises_overload(self, graphs):
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        service = SchedulingService(
            Gated(),
            num_shards=1,  # one shard so saturation is deterministic
            max_queue_depth=2,
            admission="shed",
            batch_window_s=0.0,
        )
        try:
            first = [service.submit(g, NUM_STAGES) for g in graphs[:2]]
            with pytest.raises(ServiceOverloadError):
                service.submit(graphs[2], NUM_STAGES)
            assert service.stats().shed == 1
            release.set()
            for graph, future in zip(graphs[:2], first):
                assert future.result(timeout=10).schedule.graph is graph
            # Once drained, the shard admits again.
            assert (
                service.schedule(graphs[2], NUM_STAGES).schedule.graph
                is graphs[2]
            )
        finally:
            release.set()
            service.close()

    def test_degrade_policy_serves_fallback_inline(self, graphs):
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        seen = []
        service = SchedulingService(
            Gated(),
            num_shards=1,
            max_queue_depth=1,
            admission="degrade",
            batch_window_s=0.0,
        )
        try:
            service.add_serve_listener(
                lambda graph, stages, result: seen.append(result)
            )
            pending = service.submit(graphs[0], NUM_STAGES)
            degraded = service.submit(graphs[1], NUM_STAGES)
            assert degraded.done()  # answered inline, no queueing
            result = degraded.result(timeout=1)
            assert result.extras["degraded"] is True
            # No ladder: the floor rung's ListScheduler answers.
            assert result.extras["degrade_rung"] == "floor"
            expected = ListScheduler().schedule(graphs[1], NUM_STAGES)
            assert result.schedule.assignment == expected.schedule.assignment
            assert result.schedule.graph is graphs[1]
            # The degraded serve was observed by the tier listener.
            assert any(r.extras.get("degraded") for r in seen)
            assert service.stats().degraded == 1
            release.set()
            pending.result(timeout=10)
            # Normal serves are never marked degraded.
            normal = service.schedule(graphs[2], NUM_STAGES)
            assert "degraded" not in normal.extras
        finally:
            release.set()
            service.close()

    def test_cached_requests_bypass_a_saturated_gate(self, graphs):
        """A request answerable from the cache (or coalescable onto an
        in-flight solve) is never shed/degraded/blocked: admission
        bounds solver backlog, not O(1) lookups."""
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        fake = Gated()
        service = SchedulingService(
            fake,
            num_shards=1,
            max_queue_depth=1,
            admission="shed",
            batch_window_s=0.0,
        )
        try:
            # Warm the cache for graphs[0] before saturating.
            release.set()
            warm = service.schedule(graphs[0], NUM_STAGES)
            assert warm.extras["cache_hit"] is False
            release.clear()
            stuck = service.submit(graphs[1], NUM_STAGES)  # saturates
            with pytest.raises(ServiceOverloadError):
                service.submit(graphs[2], NUM_STAGES)  # uncached: shed
            # Cached: served straight past the saturated gate.
            hit = service.submit(graphs[0], NUM_STAGES)
            assert hit.done()
            assert hit.result(timeout=1).extras["cache_hit"] is True
            # Coalescable onto the in-flight solve: also waved through.
            coalesced = service.submit(graphs[1], NUM_STAGES)
            release.set()
            assert coalesced.result(timeout=10).schedule.graph is graphs[1]
            stuck.result(timeout=10)
            assert service.stats().shed == 1
        finally:
            release.set()
            service.close()

    def test_coalesced_waiters_do_not_consume_admission_slots(self, graphs):
        """The gate bounds solver backlog, not waiters: a thundering
        herd coalescing onto one solve occupies one slot, so requests
        for *other* graphs are still admitted."""
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        service = SchedulingService(
            Gated(),
            num_shards=1,
            max_queue_depth=2,
            admission="shed",
            batch_window_s=0.0,
        )
        try:
            herd = [service.submit(graphs[0], NUM_STAGES) for _ in range(6)]
            assert service.backlog() == 1  # six waiters, one solve
            # A distinct graph still fits in the depth-2 budget...
            other = service.submit(graphs[1], NUM_STAGES)
            # ...and only genuine backlog beyond it is shed.
            with pytest.raises(ServiceOverloadError):
                service.submit(graphs[2], NUM_STAGES)
            release.set()
            for future in herd:
                assert (
                    future.result(timeout=10).schedule.graph is graphs[0]
                )
            assert other.result(timeout=10).schedule.graph is graphs[1]
        finally:
            release.set()
            service.close()

    def test_racing_submitters_cannot_overshoot_the_depth_bound(self, graphs):
        """Check-then-act regression: the gate holds in-transit
        reservations, so N concurrent submitters racing a depth-2 shard
        admit exactly 2 solves — never more."""
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        depth = 2
        service = SchedulingService(
            Gated(),
            num_shards=1,
            max_queue_depth=depth,
            admission="shed",
            batch_window_s=0.0,
        )
        outcomes = [None] * len(graphs)
        barrier = threading.Barrier(len(graphs))

        def racer(i):
            barrier.wait()
            try:
                outcomes[i] = service.submit(graphs[i], NUM_STAGES)
            except ServiceOverloadError:
                outcomes[i] = "shed"

        threads = [
            threading.Thread(target=racer, args=(i,))
            for i in range(len(graphs))
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            # The solver never progressed, so every admission is still
            # backlog: the depth bound must hold exactly.
            admitted = [o for o in outcomes if o != "shed"]
            assert len(admitted) == depth, outcomes
            assert service.backlog() == depth
            assert service.stats().shed == len(graphs) - depth
            release.set()
            for future in admitted:
                future.result(timeout=10)
        finally:
            release.set()
            service.close()


class TestAsyncFacade:
    def test_asubmit_matches_sync_results(self, graphs):
        fake = FakeScheduler()
        direct = [fake.schedule(g, NUM_STAGES) for g in graphs]
        with SchedulingService(fake, num_shards=4) as service:

            async def drive():
                return await asyncio.gather(
                    *[service.asubmit(g, NUM_STAGES) for g in graphs]
                )

            results = asyncio.run(drive())
        for d, r, graph in zip(direct, results, graphs):
            assert r.schedule.assignment == d.schedule.assignment
            assert r.schedule.graph is graph

    def test_asubmit_applies_backpressure_without_stalling_loop(self, graphs):
        """64 concurrent awaits against depth-2 shards: the loop keeps
        ticking (a heartbeat task runs) while submits block in the
        executor."""
        fake = FakeScheduler(delay=0.002)
        beats = []
        with SchedulingService(
            fake,
            num_shards=2,
            max_queue_depth=2,
            admission="block",
            batch_window_s=0.0,
        ) as service:

            async def heartbeat():
                while True:
                    beats.append(time.perf_counter())
                    await asyncio.sleep(0.002)

            async def drive():
                beat = asyncio.ensure_future(heartbeat())
                try:
                    return await asyncio.gather(
                        *[
                            service.asubmit(graphs[i % len(graphs)], NUM_STAGES)
                            for i in range(32)
                        ]
                    )
                finally:
                    beat.cancel()

            results = asyncio.run(drive())
        assert len(results) == 32
        assert len(beats) >= 3  # the event loop was never blocked solid

    def test_single_service_asubmit(self, graphs):
        fake = FakeScheduler()
        with SchedulingService(fake) as service:

            async def drive():
                return await service.asubmit(graphs[0], NUM_STAGES)

            result = asyncio.run(drive())
        assert result.schedule.graph is graphs[0]


class TestListenersAndStats:
    def test_one_registration_sees_all_shards(self, graphs):
        seen = []
        with SchedulingService(FakeScheduler(), num_shards=4) as svc:
            svc.add_serve_listener(
                lambda graph, stages, result: seen.append(graph)
            )
            svc.schedule_batch(graphs, NUM_STAGES)
        assert Counter(map(id, seen)) == Counter(map(id, graphs))

    def test_remove_listener_tier_wide(self, graphs):
        seen = []
        listener = lambda graph, stages, result: seen.append(graph)  # noqa: E731
        with SchedulingService(FakeScheduler(), num_shards=2) as svc:
            svc.add_serve_listener(listener)
            svc.schedule(graphs[0], NUM_STAGES)
            svc.remove_serve_listener(listener)
            svc.schedule(graphs[1], NUM_STAGES)
        assert len(seen) == 1

    def test_aggregate_stats_sum_shards(self, graphs):
        with SchedulingService(FakeScheduler(), num_shards=4) as svc:
            svc.schedule_batch(graphs, NUM_STAGES)
            svc.schedule(graphs[0], NUM_STAGES)  # one warm hit
            stats = svc.stats()
        assert stats.num_shards == 4
        assert stats.requests == len(graphs) + 1
        assert stats.requests == sum(s.requests for s in stats.per_shard)
        assert stats.cache_hits == 1
        assert stats.scheduled_graphs == len(graphs)
        assert stats.hit_rate == pytest.approx(1 / (len(graphs) + 1))
        assert stats.latency_p50_s <= stats.latency_p99_s
        assert stats.admission == "block"
        assert stats.blocked == stats.shed == stats.degraded == 0


class TestLifecycle:
    def test_close_timeout_is_a_shared_deadline_not_per_shard(self, graphs):
        """4 stuck shards must not stretch close(timeout=t) to ~4t."""
        release = threading.Event()

        class Stuck(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=30)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=30)
                return super().schedule(graph, num_stages)

        service = SchedulingService(
            Stuck(), num_shards=4, batch_window_s=0.0
        )
        futures = [service.submit(g, NUM_STAGES) for g in graphs]
        try:
            start = time.perf_counter()
            service.close(timeout=0.5)
            elapsed = time.perf_counter() - start
            # Sequential per-shard budgets would take >= ~2.0s here.
            assert elapsed < 1.5, elapsed
            for future in futures:
                assert future.done()
        finally:
            release.set()

    def test_close_wakes_blocked_submitters(self, graphs):
        release = threading.Event()

        class Stuck(FakeScheduler):
            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

        service = SchedulingService(
            Stuck(),
            num_shards=1,
            max_queue_depth=1,
            admission="block",
            batch_window_s=0.0,
        )
        service.submit(graphs[0], NUM_STAGES)  # saturate the shard
        outcome = []

        def blocked_submit():
            try:
                outcome.append(service.submit(graphs[1], NUM_STAGES))
            except ServiceError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.05)  # let it block on admission
        try:
            service.close(timeout=0.2)
            thread.join(timeout=5)
            assert not thread.is_alive()  # close() woke the submitter
            assert len(outcome) == 1
            if isinstance(outcome[0], ServiceError):
                assert "closed" in str(outcome[0])
        finally:
            release.set()
            thread.join(timeout=5)


class TestSwap:
    def test_swap_reaches_every_shard(self, graphs):
        v1, v2 = FakeScheduler(), FakeScheduler()
        v2.method_name = "fake_v2"
        with SchedulingService(v1, num_shards=4) as service:
            service.schedule_batch(graphs, NUM_STAGES)
            old_key = service.swap_scheduler(v2)
            assert all(s.scheduler is v2 for s in service.shards)
            assert service.scheduler is v2
            evicted = service.invalidate_options(old_key)
            assert evicted == len(graphs)  # every shard's stale entries
            result = service.schedule(graphs[0], NUM_STAGES)
            assert result.extras["cache_hit"] is False  # re-solved by v2
            assert result.extras["service"] == "fake_v2"
            assert service.stats().swaps == 1

    def test_swap_via_factory(self, graphs):
        with SchedulingService(
            scheduler_factory=FakeScheduler, num_shards=3
        ) as service:
            made = []

            def factory():
                made.append(FakeScheduler())
                return made[-1]

            service.swap_scheduler(scheduler_factory=factory)
            assert len(made) == 3
            assert {id(s.scheduler) for s in service.shards} == {
                id(m) for m in made
            }

    def test_swap_requires_exactly_one_source(self, graphs):
        with SchedulingService(FakeScheduler(), num_shards=2) as svc:
            with pytest.raises(ServiceError):
                svc.swap_scheduler()
            with pytest.raises(ServiceError):
                svc.swap_scheduler(
                    FakeScheduler(), scheduler_factory=FakeScheduler
                )


class TestFlowIntegration:
    def test_serve_methods_sharded_equivalence(self, graphs):
        from repro.flow.compare import (
            schedule_many,
            serve_methods,
            served_method_stats,
        )

        methods = {"fake": FakeScheduler}
        reference = schedule_many(
            FakeScheduler(), graphs, [NUM_STAGES] * len(graphs)
        )
        served = serve_methods(methods, num_shards=3)
        results = schedule_many(
            served["fake"](), graphs, [NUM_STAGES] * len(graphs)
        )
        for ref, out in zip(reference, results):
            assert ref.schedule.assignment == out.schedule.assignment
        stats = served_method_stats(served)["fake"]
        assert stats.requests >= len(graphs)
        assert stats.method == "fake"

    def test_build_fleet_sharded_matches_single(self):
        from repro.cluster.fleet import ReplicaSpec, build_fleet

        graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=1)
        models = {"m0": graph}
        specs = [ReplicaSpec("r0", 2), ReplicaSpec("r1", 2)]
        single = build_fleet(specs, models, scheduler=FakeScheduler())
        sharded = build_fleet(
            specs, models, scheduler=FakeScheduler(), num_shards=4
        )
        for r_single, r_sharded in zip(single.replicas, sharded.replicas):
            d_single = r_single.deployment("m0")
            d_sharded = r_sharded.deployment("m0")
            assert d_single.profiles == d_sharded.profiles
            assert d_single.period_seconds == d_sharded.period_seconds
        # Fingerprint routing preserves cross-replica schedule reuse.
        assert sharded.build_stats.cache_hits == single.build_stats.cache_hits
        assert sharded.build_stats.hit_rate == pytest.approx(0.5)
