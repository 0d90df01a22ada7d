"""Snapshot/restore round-trips through the serving tiers.

The contract under test (issue satellite #3 plus the promotion
acceptance criterion): a service rebooted over a persisted store
directory — same process or a fresh subprocess — serves bit-identical
schedules with **zero** solver invocations, and after
``promote_challenger`` a rebooted process can never serve a schedule
solved by the retired champion.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.service import (
    DiskScheduleStore,
    SchedulingService,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class CountingScheduler:
    """Deterministic scheduler with a fixed, cross-process options key."""

    method_name = "counting"

    def __init__(self, options_key: str = "counting-v1") -> None:
        self._options_key = options_key
        self.schedule_calls = 0

    def options_fingerprint(self) -> str:
        return self._options_key

    def schedule(self, graph, num_stages):
        self.schedule_calls += 1
        assignment = {
            name: min(i * num_stages // graph.num_nodes, num_stages - 1)
            for i, name in enumerate(graph.node_names)
        }
        return ScheduleResult(
            Schedule(graph, num_stages, assignment), 0.001, self.method_name
        )


@pytest.fixture()
def graphs():
    return [sample_synthetic_dag(num_nodes=12, seed=seed) for seed in range(5)]


class TestSingleServiceRestore:
    def test_warm_reboot_serves_bit_identical_without_solving(
        self, graphs, tmp_path
    ):
        with SchedulingService(
            CountingScheduler(), store_dir=tmp_path, batch_window_s=0.0
        ) as service:
            cold = [service.schedule(g, 3) for g in graphs]
            service.snapshot()

        reborn = CountingScheduler()
        with SchedulingService(
            reborn, store_dir=tmp_path, batch_window_s=0.0
        ) as service:
            assert service.restore() == len(graphs)
            warm = [service.schedule(g, 3) for g in graphs]
            assert reborn.schedule_calls == 0
            for before, after in zip(cold, warm):
                assert (
                    before.schedule.assignment == after.schedule.assignment
                )
                assert after.extras["cache_hit"] is True
            assert service.stats().cache_hits == len(graphs)

    def test_unsnapshotted_store_still_warm_starts(self, graphs, tmp_path):
        # Crash-consistency: appends are flushed per put, so even a
        # process that never called snapshot()/close() leaves a fully
        # replayable store behind.
        service = SchedulingService(
            CountingScheduler(), store_dir=tmp_path, batch_window_s=0.0
        )
        cold = [service.schedule(g, 3) for g in graphs]
        # Abandon without close(): simulate a process crash by dropping
        # the handle on the floor (segment bytes are already flushed).
        service._owned_store._append_handle.flush()
        service._owned_store._closed = True
        service._closed = True

        reborn = CountingScheduler()
        with SchedulingService(
            reborn, store_dir=tmp_path, batch_window_s=0.0
        ) as revived:
            warm = [revived.schedule(g, 3) for g in graphs]
            assert reborn.schedule_calls == 0
            for before, after in zip(cold, warm):
                assert before.schedule.assignment == after.schedule.assignment

    def test_snapshot_requires_persistent_store(self):
        from repro.errors import ServiceError

        with SchedulingService(CountingScheduler()) as service:
            assert service.schedule_store is None
            assert service.restore() == 0
            with pytest.raises(ServiceError):
                service.snapshot()

    def test_distinct_options_keys_do_not_cross_serve(self, graphs, tmp_path):
        with SchedulingService(
            CountingScheduler("v1"), store_dir=tmp_path, batch_window_s=0.0
        ) as service:
            service.schedule(graphs[0], 3)
        other = CountingScheduler("v2")
        with SchedulingService(
            other, store_dir=tmp_path, batch_window_s=0.0
        ) as service:
            service.schedule(graphs[0], 3)
            # Content-addressing includes the options key: a different
            # scheduler configuration must re-solve, not reuse.
            assert other.schedule_calls == 1


class TestShardedServiceRestore:
    def test_warm_reboot_across_shards(self, graphs, tmp_path):
        with SchedulingService(
            scheduler_factory=CountingScheduler,
            num_shards=3,
            store_dir=tmp_path,
            batch_window_s=0.0,
        ) as tier:
            cold = [tier.schedule(g, 3) for g in graphs]
            tier.snapshot()
            assert tier.schedule_store is not None

        reborn = CountingScheduler()
        with SchedulingService(
            reborn, num_shards=3, store_dir=tmp_path, batch_window_s=0.0
        ) as tier:
            assert tier.restore() == len(graphs)
            warm = [tier.schedule(g, 3) for g in graphs]
            assert reborn.schedule_calls == 0
            for before, after in zip(cold, warm):
                assert before.schedule.assignment == after.schedule.assignment

    def test_shard_namespaces_preserve_affinity(self, graphs, tmp_path):
        # Every persisted entry must live in the namespace of the shard
        # that owns its fingerprint — the invariant that makes the warm
        # start above find entries where the ring routes requests.
        with SchedulingService(
            scheduler_factory=CountingScheduler,
            num_shards=3,
            store_dir=tmp_path,
            batch_window_s=0.0,
        ) as tier:
            for graph in graphs:
                tier.schedule(graph, 3)
            expected = {}
            for graph in graphs:
                shard_id = tier.shard_index(graph)
                namespace = tier.shard_namespace(shard_id)
                expected[namespace] = expected.get(namespace, 0) + 1
        with DiskScheduleStore(tmp_path) as store:
            observed = {
                namespace: store.count(namespace)
                for namespace in store.namespaces()
            }
            assert observed == {k: v for k, v in expected.items() if v}

    def test_store_and_caches_are_mutually_exclusive(self, tmp_path):
        from repro.errors import ServiceError
        from repro.service import TieredScheduleStore

        with pytest.raises(ServiceError, match="not both"):
            SchedulingService(
                CountingScheduler(),
                num_shards=2,
                stores=[TieredScheduleStore(), TieredScheduleStore()],
                store_dir=tmp_path,
            )


_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.graphs.sampler import sample_synthetic_dag
from repro.service import SchedulingService

class ExplodingScheduler:
    method_name = "counting"
    def options_fingerprint(self):
        return "counting-v1"
    def schedule(self, graph, num_stages):
        raise AssertionError("the restored process must never solve")

graphs = [sample_synthetic_dag(num_nodes=12, seed=seed) for seed in range(5)]
with SchedulingService(
    ExplodingScheduler(), store_dir={store!r}, batch_window_s=0.0
) as service:
    service.restore()
    served = [service.schedule(g, 3).schedule.assignment for g in graphs]
print(json.dumps(served))
"""


class TestSubprocessRestore:
    def test_fresh_process_serves_bit_identical_with_zero_solves(
        self, graphs, tmp_path
    ):
        store_dir = tmp_path / "store"
        with SchedulingService(
            CountingScheduler(), store_dir=store_dir, batch_window_s=0.0
        ) as service:
            cold = [
                service.schedule(g, 3).schedule.assignment for g in graphs
            ]
            service.snapshot()

        script = _SUBPROCESS_SCRIPT.format(
            src=REPO_SRC, store=str(store_dir)
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        warm = json.loads(proc.stdout)
        assert warm == cold


class TestPromotionDurability:
    """After promote_challenger, a rebooted process over the same store
    directory never serves a schedule solved by the retired champion."""

    def _policy(self, seed):
        from repro.embedding.features import EmbeddingConfig
        from repro.rl.ptrnet import PointerNetworkPolicy

        return PointerNetworkPolicy(
            feature_dim=EmbeddingConfig().feature_dim, hidden_size=16, seed=seed
        )

    def _respect(self, seed):
        from repro.rl.respect import RespectScheduler

        return RespectScheduler(policy=self._policy(seed))

    def test_restart_after_promotion_never_serves_champion(
        self, graphs, tmp_path
    ):
        from repro.online import ShadowEvaluation, promote_challenger
        from repro.online.promotion import scheduler_with_policy

        champion = self._respect(0)
        challenger = scheduler_with_policy(champion, self._policy(1))
        champion_key = champion.options_fingerprint()
        evaluation = ShadowEvaluation(
            champion_rewards=[0.5] * 4,
            challenger_rewards=[0.8, 0.81, 0.79, 0.8],
            min_improvement=0.0,
            z_threshold=1.64,
        )
        with SchedulingService(
            champion, store_dir=tmp_path, batch_window_s=0.0
        ) as service:
            for graph in graphs:
                service.schedule(graph, 3)
            assert service.schedule_store.count() == len(graphs)
            record = promote_challenger(service, challenger, evaluation)
            assert record.invalidated_entries == len(graphs)
            challenger_served = [
                service.schedule(g, 3).schedule.assignment for g in graphs
            ]

        # Reboot over the same directory: not a single entry of the
        # retired champion survives — not in the index, and not
        # servable under its options fingerprint.
        with DiskScheduleStore(tmp_path) as store:
            for namespace in store.namespaces() or ["default"]:
                for key in store.keys(namespace):
                    assert key[2] != champion_key
                    entry = store.get(namespace, key)
                    assert entry.provenance["options_fingerprint"] != (
                        champion_key
                    )

        reborn = scheduler_with_policy(champion, self._policy(1))
        with SchedulingService(
            reborn, store_dir=tmp_path, batch_window_s=0.0
        ) as revived:
            # The promoted challenger's entries warm-start the reboot...
            warm = [
                revived.schedule(g, 3).schedule.assignment for g in graphs
            ]
            assert warm == challenger_served
            assert revived.stats().cache_hits == len(graphs)

        # A reboot running the retired champion itself finds nothing to
        # reuse: its entries are durably gone, so every request would be
        # a fresh solve — never a resurrected schedule.
        from repro.graphs.fingerprint import graph_fingerprint

        champion_again = scheduler_with_policy(champion, self._policy(0))
        with SchedulingService(
            champion_again, store_dir=tmp_path, batch_window_s=0.0
        ) as relapsed:
            assert (
                champion_again.options_fingerprint() == champion_key
            )  # same weights -> same fingerprint, so reuse *would* hit
            for graph in graphs:
                assert not relapsed.shards[0].has_cached(graph_fingerprint(graph), 3)
