"""Tests for the multiprocess decode tier (:mod:`repro.service.workers`).

The contract under test: routing the pointer-network decode through a
:class:`DecodeWorkerPool` of spawn-started processes changes *where* the
numpy runs and nothing else — schedules stay bit-identical to the
in-process path, hot swaps propagate atomically via the weights-epoch
token, a killed worker is respawned and its in-flight work resubmitted
(fault injection below), and ``close`` fails still-pending waiters with
exactly the in-process tier's ``ServiceError("service closed")``.

Pools spawn real processes (cold start pays a numpy import per worker),
so the suite shares one module-scoped pool wherever the test doesn't
need to damage it.
"""

import os
import time

import pytest

from repro.embedding.features import EmbeddingConfig
from repro.errors import DecodeWorkerError, ServiceError
from repro.graphs.sampler import sample_synthetic_dag
from repro.rl.respect import RespectScheduler
from repro.scheduling.heuristics import ListScheduler
from repro.service import (
    DecodeWorkerPool,
    SchedulingService,
    WorkerDecodeScheduler,
    supports_worker_decode,
    unwrap_scheduler,
    wire,
)
from repro.service.workers import _WorkerDecoder


@pytest.fixture(scope="module")
def respect():
    return RespectScheduler()


@pytest.fixture(scope="module")
def shared_pool():
    with DecodeWorkerPool(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def graphs():
    return [
        sample_synthetic_dag(num_nodes=12, degree=3, seed=seed)
        for seed in range(6)
    ]


class TestPredicates:
    def test_supports_worker_decode(self, respect):
        assert supports_worker_decode(respect)
        assert not supports_worker_decode(ListScheduler())

    def test_only_respect_schedulers_publish(self, shared_pool):
        with pytest.raises(ServiceError, match="not a RespectScheduler"):
            shared_pool.publish_scheduler(ListScheduler())

    def test_wrapped_scheduler_is_not_rewrappable(self, respect, shared_pool):
        epoch = shared_pool.publish_scheduler(respect)
        wrapped = WorkerDecodeScheduler(respect, shared_pool, epoch)
        assert not supports_worker_decode(wrapped)
        assert unwrap_scheduler(wrapped) is respect
        assert unwrap_scheduler(respect) is respect

    def test_adapter_delegates_identity(self, respect, shared_pool):
        epoch = shared_pool.publish_scheduler(respect)
        wrapped = WorkerDecodeScheduler(respect, shared_pool, epoch)
        assert wrapped.method_name == respect.method_name
        assert (
            wrapped.options_fingerprint() == respect.options_fingerprint()
        )
        # Attribute delegation: the online loop reads these through the
        # adapter when cloning challenger schedulers.
        assert wrapped.budget_slack == respect.budget_slack


@pytest.fixture(scope="module")
def variants(respect):
    """The default scheduler, the unconstrained decoder (whose orders
    need dependency repair) and a fixed packing budget."""
    return [
        respect,
        RespectScheduler(policy=respect.policy, constrain_topological=False),
        RespectScheduler(policy=respect.policy, budget_slack=1.05),
    ]


def assert_same_result(remote, local):
    assert remote.schedule.assignment == local.schedule.assignment
    assert remote.extras["log_prob"] == local.extras["log_prob"]
    assert remote.objective == local.objective
    assert remote.status == local.status
    assert remote.method == local.method
    assert (
        remote.extras["repaired_violations"]
        == local.extras["repaired_violations"]
    )
    assert set(remote.extras) == set(local.extras) | {"worker_decode"}
    assert remote.extras["worker_decode"] is True


class TestBitIdentity:
    def test_adapter_schedule_matches_in_process(
        self, variants, shared_pool, graphs
    ):
        for scheduler in variants:
            epoch = shared_pool.publish_scheduler(scheduler)
            wrapped = WorkerDecodeScheduler(scheduler, shared_pool, epoch)
            for graph in graphs[:3]:
                assert_same_result(
                    wrapped.schedule(graph, 4), scheduler.schedule(graph, 4)
                )

    def test_adapter_schedule_batch_matches_in_process(
        self, variants, shared_pool, graphs
    ):
        for scheduler in variants:
            epoch = shared_pool.publish_scheduler(scheduler)
            wrapped = WorkerDecodeScheduler(scheduler, shared_pool, epoch)
            remote = wrapped.schedule_batch(graphs, [2, 3, 4, 5, 4, 3])
            local = scheduler.schedule_batch(graphs, [2, 3, 4, 5, 4, 3])
            assert len(remote) == len(local) == len(graphs)
            for r, l in zip(remote, local):
                assert_same_result(r, l)
                assert r.extras["batch_size"] == len(graphs)

    def test_service_with_decode_pool_matches_in_process(
        self, respect, shared_pool, graphs
    ):
        with SchedulingService(respect, decode_pool=shared_pool) as service:
            assert isinstance(service.scheduler, WorkerDecodeScheduler)
            served = [service.schedule(g, 4) for g in graphs]
        local = [respect.schedule(g, 4) for g in graphs]
        for s, l in zip(served, local):
            assert s.schedule.assignment == l.schedule.assignment
        # Shared pools outlive the services borrowing them.
        assert not shared_pool.stats().closed
        assert shared_pool.stats().decodes > 0

    def test_sharded_service_with_decode_pool_matches_in_process(
        self, respect, shared_pool, graphs
    ):
        with SchedulingService(
            respect, num_shards=2, decode_pool=shared_pool
        ) as service:
            served = [service.schedule(g, 4) for g in graphs]
        local = [respect.schedule(g, 4) for g in graphs]
        for s, l in zip(served, local):
            assert s.schedule.assignment == l.schedule.assignment
        assert not shared_pool.stats().closed


class TestHotSwap:
    def test_mid_stream_swap_is_bit_identical_per_generation(
        self, respect, shared_pool, graphs
    ):
        challenger = RespectScheduler(budget_slack=1.5)
        with SchedulingService(respect, decode_pool=shared_pool) as service:
            before = [service.schedule(g, 4) for g in graphs[:3]]
            old_key = service.swap_scheduler(challenger)
            assert old_key == respect.options_fingerprint()
            assert isinstance(service.scheduler, WorkerDecodeScheduler)
            after = [service.schedule(g, 4) for g in graphs[:3]]
        for s, l in zip(before, [respect.schedule(g, 4) for g in graphs[:3]]):
            assert s.schedule.assignment == l.schedule.assignment
        for s, l in zip(
            after, [challenger.schedule(g, 4) for g in graphs[:3]]
        ):
            assert s.schedule.assignment == l.schedule.assignment

    def test_stale_epoch_adapter_still_decodes_its_own_weights(
        self, respect, shared_pool, graphs
    ):
        # Publishing a new epoch must not corrupt adapters still pinned
        # to an older one (requests in flight during a swap).
        old = WorkerDecodeScheduler(
            respect, shared_pool, shared_pool.publish_scheduler(respect)
        )
        challenger = RespectScheduler(budget_slack=1.5)
        new = WorkerDecodeScheduler(
            challenger, shared_pool, shared_pool.publish_scheduler(challenger)
        )
        graph = graphs[0]
        assert (
            new.schedule(graph, 4).schedule.assignment
            == challenger.schedule(graph, 4).schedule.assignment
        )
        assert (
            old.schedule(graph, 4).schedule.assignment
            == respect.schedule(graph, 4).schedule.assignment
        )


class _LegacySidecarPublisher(RespectScheduler):
    """Publishes ``inner``'s weights with a sidecar in the layout written
    before greedy inference had one decode path: it still carries the
    retired ``use_vectorized_decode`` flag."""

    def __init__(self, inner, flag):
        super().__init__(policy=inner.policy)
        self._flag = flag

    def decode_config(self):
        return dict(super().decode_config(), use_vectorized_decode=self._flag)


class TestLegacySidecar:
    @pytest.mark.parametrize("flag", [True, False])
    def test_retired_decode_flag_is_ignored(
        self, respect, shared_pool, graphs, flag
    ):
        epoch = shared_pool.publish_scheduler(
            _LegacySidecarPublisher(respect, flag)
        )
        wrapped = WorkerDecodeScheduler(respect, shared_pool, epoch)
        remote = wrapped.schedule_batch(graphs, 4)
        local = respect.schedule_batch(graphs, 4)
        for r, l in zip(remote, local):
            assert r.extras["worker_decode"] is True
            assert r.schedule.assignment == l.schedule.assignment
            assert r.extras["log_prob"] == l.extras["log_prob"]


class TestFallbackAndValidation:
    def test_unsupported_scheduler_stays_in_process(self, shared_pool, graphs):
        scheduler = ListScheduler()
        with SchedulingService(scheduler, decode_pool=shared_pool) as service:
            assert service.scheduler is scheduler
            served = service.schedule(graphs[0], 4)
        assert (
            served.schedule.assignment
            == scheduler.schedule(graphs[0], 4).schedule.assignment
        )

    def test_decode_workers_and_decode_pool_are_exclusive(self, respect):
        with pytest.raises(ServiceError, match="not both"):
            SchedulingService(
                respect, decode_workers=2, decode_pool=object()
            )
        with pytest.raises(ServiceError, match="not both"):
            SchedulingService(
                respect, num_shards=2, decode_workers=2, decode_pool=object()
            )

    def test_negative_decode_workers_rejected(self, respect):
        with pytest.raises(ServiceError):
            SchedulingService(respect, decode_workers=-1)

    def test_submit_requires_published_scheduler(self):
        with DecodeWorkerPool(1) as pool:
            with pytest.raises(ServiceError, match="no scheduler published"):
                pool.submit(b"whatever")


class TestWorkerSideChecks:
    """``_WorkerDecoder.decode`` run in-process: the checks a worker
    makes on every request, without spawning one."""

    def test_matching_request_decodes_like_in_process(self, respect, graphs):
        payload = wire.encode_decode_request(
            graphs,
            options_key=respect.options_fingerprint(),
            embedding_config=respect.embedding_config,
        )
        response = wire.decode_decode_response(
            _WorkerDecoder(1, respect).decode(payload)
        )
        orders, log_probs = respect._decode_batch(graphs)
        assert response.orders == orders == respect.decode_orders(graphs)
        assert response.log_probs == log_probs

    def test_embedding_config_mismatch_is_refused(self, respect, graphs):
        # Same feature dim as the default (15), different columns: only
        # the config comparison, not a shape check, can catch it.
        other = EmbeddingConfig(
            max_parents=7, include_levels=False, include_node_id=False
        )
        assert other.feature_dim == respect.embedding_config.feature_dim
        payload = wire.encode_decode_request(graphs, embedding_config=other)
        with pytest.raises(DecodeWorkerError, match="embedded with"):
            _WorkerDecoder(1, respect).decode(payload)


class TestWorkerImports:
    def test_spawned_worker_maps_no_scipy(self, respect, graphs):
        # scipy is the exact ILP's dependency only; a decode worker that
        # loaded it would pay ~0.7 s and ~40 MiB before its first decode.
        with SchedulingService(respect, decode_workers=1) as service:
            served = service.schedule(graphs[0], 4)
            assert served.extras["worker_decode"] is True
            pool = service._decode_pool
            pids = [worker.process.pid for worker in pool._workers]
            assert pids
            for pid in pids:
                maps = f"/proc/{pid}/maps"
                if not os.path.exists(maps):
                    pytest.skip("/proc/<pid>/maps is Linux-only")
                with open(maps) as handle:
                    mapped = handle.read()
                assert "/scipy/" not in mapped, pid


class TestFaultInjection:
    def test_killed_worker_is_respawned_and_work_resubmitted(
        self, respect, graphs
    ):
        # Dedicated pool: this test damages it on purpose.
        with DecodeWorkerPool(1) as pool:
            epoch = pool.publish_scheduler(respect)
            wrapped = WorkerDecodeScheduler(respect, pool, epoch)
            baseline = wrapped.schedule(graphs[0], 4)
            victim = pool._workers[0].process
            victim.terminate()
            victim.join()
            survived = wrapped.schedule(graphs[0], 4)
            assert (
                survived.schedule.assignment
                == baseline.schedule.assignment
            )
            deadline = time.monotonic() + 10.0
            while (
                pool.stats().respawns < 1 and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert pool.stats().respawns >= 1

    def test_close_fails_pending_waiters_like_in_process_tier(self, respect):
        import threading

        with DecodeWorkerPool(1) as pool:
            epoch = pool.publish_scheduler(respect)
            wrapped = WorkerDecodeScheduler(respect, pool, epoch)
            graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=99)
            wrapped.schedule(graph, 4)  # workers warm: next submit queues fast
            # Kill the only worker so a submitted task can never finish,
            # then close: the waiter must get the in-process tier's
            # exact failure, not a timeout of its own.
            pool._workers[0].process.terminate()
            pool._workers[0].process.join()
            errors = []

            def submit():
                try:
                    pool.submit(b"never decoded", timeout=30.0)
                except ServiceError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=submit)
            thread.start()
            deadline = time.monotonic() + 5.0
            while not pool.stats().pending and time.monotonic() < deadline:
                time.sleep(0.01)
            pool.close(timeout=2.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert len(errors) == 1
            assert str(errors[0]) == "service closed"
            assert not isinstance(errors[0], DecodeWorkerError)

    def test_closed_pool_refuses_submits(self, respect):
        pool = DecodeWorkerPool(1)
        pool.publish_scheduler(respect)
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.submit(b"late")
        pool.close()  # idempotent
