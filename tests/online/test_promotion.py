"""Tests for shadow evaluation, the promotion gate, and hot-swap wiring."""

import numpy as np
import pytest

from repro.embedding.features import EmbeddingConfig
from repro.graphs.families import AttentionAugmentedFamily
from repro.online import (
    ShadowEvaluation,
    default_reward_model,
    evaluate_challenger,
    promote_challenger,
    scheduler_with_policy,
)
from repro.rl.checkpoints import load_checkpoint, read_metadata
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.respect import RespectScheduler
from repro.service import SchedulingService


def _tiny_policy(seed=0):
    return PointerNetworkPolicy(
        feature_dim=EmbeddingConfig().feature_dim, hidden_size=16, seed=seed
    )


@pytest.fixture(scope="module")
def graphs():
    return AttentionAugmentedFamily(num_nodes=14, degree=2, seed=9).sample_batch(6)


class TestShadowEvaluationGate:
    def _eval(self, champion, challenger, **kwargs):
        return ShadowEvaluation(
            champion_rewards=champion,
            challenger_rewards=challenger,
            min_improvement=kwargs.get("min_improvement", 0.0),
            z_threshold=kwargs.get("z_threshold", 1.64),
        )

    def test_clear_winner_promotes(self):
        evaluation = self._eval([0.5] * 8, [0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.8])
        assert evaluation.mean_improvement > 0.25
        assert evaluation.z_score > 1.64
        assert evaluation.promote

    def test_identical_rewards_do_not_promote(self):
        evaluation = self._eval([0.5] * 6, [0.5] * 6)
        assert evaluation.z_score == 0.0
        assert not evaluation.promote

    def test_uniform_improvement_has_infinite_z(self):
        evaluation = self._eval([0.5] * 4, [0.6] * 4)
        assert evaluation.z_score == np.inf
        assert evaluation.promote

    def test_noisy_small_win_rejected(self):
        champion = [0.5, 0.9, 0.4, 0.8]
        challenger = [0.6, 0.8, 0.5, 0.85]  # mean +0.04 but high variance
        evaluation = self._eval(champion, challenger)
        assert not evaluation.promote

    def test_min_improvement_gate(self):
        evaluation = self._eval(
            [0.5] * 6, [0.52] * 6, min_improvement=0.05
        )
        assert evaluation.z_score == np.inf
        assert not evaluation.promote

    def test_singleton_never_promotes(self):
        assert not self._eval([0.1], [0.9]).promote


class TestSchedulerWithPolicy:
    def test_clones_every_option(self):
        template = RespectScheduler(
            policy=_tiny_policy(0),
            budget_slack=1.2,
            enforce_siblings=True,
            constrain_topological=False,
        )
        challenger_policy = _tiny_policy(1)
        clone = scheduler_with_policy(template, challenger_policy)
        assert clone.policy is challenger_policy
        assert clone.budget_slack == 1.2
        assert clone.enforce_siblings is True
        assert clone.constrain_topological is False
        assert clone.embedding_config is template.embedding_config
        assert clone.options_fingerprint() != template.options_fingerprint()


class TestEvaluateChallenger:
    def test_pairwise_rewards_and_identity(self, graphs):
        champion = RespectScheduler(policy=_tiny_policy(0))
        challenger = scheduler_with_policy(champion, _tiny_policy(0))
        evaluation = evaluate_challenger(champion, challenger, graphs, 3)
        # Same weights -> identical schedules -> identical rewards.
        assert evaluation.champion_rewards == evaluation.challenger_rewards
        assert not evaluation.promote

    def test_empty_graphs_rejected(self):
        champion = RespectScheduler(policy=_tiny_policy(0))
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            evaluate_challenger(champion, champion, [], 3)


class TestPromoteChallenger:
    def test_persists_swaps_and_invalidates(self, graphs, tmp_path):
        champion = RespectScheduler(policy=_tiny_policy(0))
        challenger = scheduler_with_policy(champion, _tiny_policy(1))
        evaluation = evaluate_challenger(champion, challenger, graphs, 3)
        with SchedulingService(champion, batch_window_s=0.0) as service:
            for graph in graphs:
                service.schedule(graph, 3)
            assert service.stats().cache.size == len(graphs)
            record = promote_challenger(
                service,
                challenger,
                evaluation,
                checkpoint_dir=tmp_path,
                checkpoint_name="promo_test",
                drift_event={"at_observation": 12},
            )
            assert service.scheduler is challenger
            assert service.stats().swaps == 1
            # Every old-options entry evicted, counted as invalidations.
            assert record.invalidated_entries == len(graphs)
            assert service.stats().cache.size == 0
            assert service.stats().cache.invalidations == len(graphs)
            assert record.retired_options_key == champion.options_fingerprint()
            # Post-swap serves are challenger results.
            served = service.schedule(graphs[0], 3)
            direct = challenger.schedule(graphs[0], 3)
            assert served.schedule.assignment == direct.schedule.assignment

        loaded = load_checkpoint(tmp_path, "promo_test")
        state = loaded.state_dict()
        for key, value in challenger.policy.state_dict().items():
            assert np.array_equal(state[key], value)
        meta = read_metadata(tmp_path, "promo_test")
        online = meta["online_adaptation"]
        assert online["drift_event"] == {"at_observation": 12}
        assert online["replaced_options_fingerprint"] == (
            champion.options_fingerprint()
        )
        assert online["shadow_evaluation"]["size"] == len(graphs)

    def test_swap_only_without_checkpoint_dir(self, graphs):
        champion = RespectScheduler(policy=_tiny_policy(0))
        challenger = scheduler_with_policy(champion, _tiny_policy(1))
        evaluation = evaluate_challenger(champion, challenger, graphs, 3)
        with SchedulingService(champion, batch_window_s=0.0) as service:
            record = promote_challenger(service, challenger, evaluation)
            assert record.checkpoint_path is None
            assert service.scheduler is challenger

    def test_promotes_across_a_sharded_service(self, graphs):
        """The promotion path operates per-shard: every shard swaps to
        the challenger and every shard's stale cache entries are
        evicted."""
        champion = RespectScheduler(policy=_tiny_policy(0))
        challenger = scheduler_with_policy(champion, _tiny_policy(1))
        evaluation = evaluate_challenger(champion, challenger, graphs, 3)
        with SchedulingService(
            champion, num_shards=3, batch_window_s=0.0
        ) as service:
            for graph in graphs:
                service.schedule(graph, 3)
            populated = [len(shard.cache) for shard in service.shards]
            assert sum(populated) == len(graphs)
            record = promote_challenger(service, challenger, evaluation)
            # Every shard now runs the challenger...
            assert all(
                shard.scheduler is challenger for shard in service.shards
            )
            assert service.scheduler is challenger
            # ...and the champion's entries are gone from every cache.
            assert record.invalidated_entries == len(graphs)
            assert all(len(shard.cache) == 0 for shard in service.shards)
            assert record.retired_options_key == (
                champion.options_fingerprint()
            )
            served = service.schedule(graphs[0], 3)
            direct = challenger.schedule(graphs[0], 3)
            assert served.schedule.assignment == direct.schedule.assignment
            assert served.extras["cache_hit"] is False
