"""Tests for the pointer-network policy, including full-BPTT grad checks."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.rl.ptrnet import PointerNetworkPolicy


@pytest.fixture
def tiny_policy():
    return PointerNetworkPolicy(feature_dim=4, hidden_size=6, logit_clip=5.0, seed=1)


@pytest.fixture
def features(rng):
    return rng.normal(size=(2, 5, 4))


class TestForward:
    def test_outputs_are_permutations(self, tiny_policy, features):
        rollout = tiny_policy.forward(features, mode="greedy")
        for b in range(2):
            assert sorted(rollout.actions[b]) == list(range(5))

    def test_sampling_reproducible(self, tiny_policy, features):
        a = tiny_policy.forward(features, mode="sample", rng=3)
        b = tiny_policy.forward(features, mode="sample", rng=3)
        np.testing.assert_array_equal(a.actions, b.actions)

    def test_log_prob_nonpositive(self, tiny_policy, features):
        rollout = tiny_policy.forward(features, mode="greedy")
        assert np.all(rollout.log_prob <= 1e-12)

    def test_teacher_mode_follows_target(self, tiny_policy, features, rng):
        target = np.stack([rng.permutation(5) for _ in range(2)])
        rollout = tiny_policy.forward(features, mode="teacher", target=target)
        np.testing.assert_array_equal(rollout.actions, target)

    def test_teacher_requires_target(self, tiny_policy, features):
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, mode="teacher")

    def test_bad_mode_rejected(self, tiny_policy, features):
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, mode="beam")

    def test_feature_dim_checked(self, tiny_policy, rng):
        with pytest.raises(TrainingError):
            tiny_policy.forward(rng.normal(size=(1, 5, 9)))

    def test_entropy_nonnegative(self, tiny_policy, features):
        rollout = tiny_policy.forward(features, mode="sample", rng=0)
        assert np.all(rollout.entropy >= -1e-12)


class TestPrecedenceMask:
    def test_decoded_orders_are_topological(self, tiny_policy, rng):
        # Chain precedence: node i depends on i-1.
        T = 5
        precedence = np.zeros((1, T, T), dtype=bool)
        for i in range(1, T):
            precedence[0, i, i - 1] = True
        feats = rng.normal(size=(1, T, 4))
        rollout = tiny_policy.forward(feats, mode="greedy", precedence=precedence)
        assert list(rollout.actions[0]) == list(range(T))

    def test_sampled_orders_respect_precedence(self, tiny_policy, rng):
        T = 6
        precedence = np.zeros((2, T, T), dtype=bool)
        precedence[:, 3, 0] = True   # 3 needs 0
        precedence[:, 5, 3] = True   # 5 needs 3
        feats = rng.normal(size=(2, T, 4))
        for seed in range(5):
            rollout = tiny_policy.forward(
                feats, mode="sample", rng=seed, precedence=precedence
            )
            for b in range(2):
                order = list(rollout.actions[b])
                assert order.index(0) < order.index(3) < order.index(5)

    def test_bad_precedence_shape_rejected(self, tiny_policy, features):
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, precedence=np.zeros((2, 3, 3), bool))

    def test_teacher_violating_precedence_rejected(self, tiny_policy, rng):
        T = 4
        precedence = np.zeros((1, T, T), dtype=bool)
        precedence[0, 0, 1] = True  # 0 needs 1 first
        feats = rng.normal(size=(1, T, 4))
        target = np.array([[0, 1, 2, 3]])
        with pytest.raises(TrainingError):
            tiny_policy.forward(
                feats, mode="teacher", target=target, precedence=precedence
            )


class TestCyclicPrecedence:
    """A row that cannot finish raises instead of repeating a node."""

    @staticmethod
    def cyclic_precedence(batch=1, num_nodes=4, row=0):
        # Nodes 1 and 2 each name the other as a parent: after node 0
        # and node 3 (no parents) the row has real nodes left but none
        # is selectable.
        precedence = np.zeros((batch, num_nodes, num_nodes), dtype=bool)
        precedence[row, 1, 2] = precedence[row, 2, 1] = True
        return precedence

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_greedy_decode_names_row_and_step(self, tiny_policy, rng, dtype):
        tiny_policy.cast(dtype)
        feats = rng.normal(size=(1, 4, 4))
        with pytest.raises(TrainingError, match=r"row 0 .* step 2\b"):
            tiny_policy.greedy_decode(feats, precedence=self.cyclic_precedence())

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_forward_names_row_and_step(self, tiny_policy, rng, mode):
        feats = rng.normal(size=(1, 4, 4))
        with pytest.raises(TrainingError, match=r"row 0 .* step 2\b"):
            tiny_policy.forward(
                feats, mode=mode, precedence=self.cyclic_precedence(), rng=0
            )

    def test_stuck_row_in_a_padded_batch(self, tiny_policy, rng):
        # Row 0 is fine; row 1 is stuck after its two parentless nodes.
        feats = rng.normal(size=(2, 4, 4))
        precedence = self.cyclic_precedence(batch=2, row=1)
        lengths = np.array([4, 4])
        for decode in (
            lambda: tiny_policy.greedy_decode(
                feats, precedence=precedence, lengths=lengths
            ),
            lambda: tiny_policy.forward(
                feats, precedence=precedence, lengths=lengths
            ),
        ):
            with pytest.raises(TrainingError, match=r"row 1 .* step 2\b"):
                decode()

    def test_padded_parent_never_becomes_ready(self, tiny_policy, rng):
        # A real node naming a padded position as its parent can never
        # be scheduled either.
        feats = rng.normal(size=(2, 4, 4))
        precedence = np.zeros((2, 4, 4), dtype=bool)
        precedence[1, 0, 3] = True
        with pytest.raises(TrainingError, match=r"row 1 .* step 2\b"):
            tiny_policy.greedy_decode(
                feats, precedence=precedence, lengths=np.array([4, 3])
            )


class TestBackward:
    def test_full_bptt_gradient_check(self, rng):
        """Finite-difference check of the entire policy backward pass."""
        policy = PointerNetworkPolicy(feature_dim=3, hidden_size=5,
                                      logit_clip=5.0, seed=2)
        features = rng.normal(size=(2, 4, 3))
        target = np.stack([rng.permutation(4) for _ in range(2)])
        coeff = np.array([0.8, -1.1])

        def loss():
            r = policy.forward(features, mode="teacher", target=target)
            return float(np.sum(coeff * (-r.log_prob)))

        policy.zero_grad()
        rollout = policy.forward(features, mode="teacher", target=target)
        policy.backward(rollout, coeff)

        eps = 1e-6
        for name, param in policy.named_parameters():
            flat = param.value.ravel()
            gflat = param.grad.ravel()
            indices = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for i in indices:
                old = flat[i]
                flat[i] = old + eps
                up = loss()
                flat[i] = old - eps
                down = loss()
                flat[i] = old
                numeric = (up - down) / (2 * eps)
                # Mixed tolerance: tiny gradients live in FD noise.
                assert numeric == pytest.approx(gflat[i], rel=1e-4, abs=1e-7), (
                    f"{name}[{i}]"
                )

    def test_entropy_gradient_check(self, rng):
        """Finite-difference check of the exact entropy-bonus gradient.

        Teacher mode pins the trajectory, so the rollout's mean per-step
        entropy is a deterministic, differentiable function of the
        parameters; the surrogate loss ``-sum_b ec_b * H_b`` must match
        central differences.
        """
        policy = PointerNetworkPolicy(feature_dim=3, hidden_size=5,
                                      logit_clip=5.0, seed=2)
        features = rng.normal(size=(2, 4, 3))
        target = np.stack([rng.permutation(4) for _ in range(2)])
        entropy_coeff = np.array([0.7, -0.4])

        def loss():
            r = policy.forward(features, mode="teacher", target=target)
            return float(np.sum(-entropy_coeff * r.entropy))

        policy.zero_grad()
        rollout = policy.forward(features, mode="teacher", target=target)
        policy.backward(rollout, np.zeros(2), entropy_coeff=entropy_coeff)

        eps = 1e-6
        for name, param in policy.named_parameters():
            flat = param.value.ravel()
            gflat = param.grad.ravel()
            indices = rng.choice(flat.size, size=min(5, flat.size),
                                 replace=False)
            for i in indices:
                old = flat[i]
                flat[i] = old + eps
                up = loss()
                flat[i] = old - eps
                down = loss()
                flat[i] = old
                numeric = (up - down) / (2 * eps)
                assert numeric == pytest.approx(gflat[i], rel=1e-4, abs=1e-7), (
                    f"{name}[{i}]"
                )

    def test_backward_rejects_bad_coeff_shape(self, tiny_policy, features):
        rollout = tiny_policy.forward(features, mode="greedy")
        with pytest.raises(TrainingError):
            tiny_policy.backward(rollout, np.zeros(3))

    def test_backward_rejects_bad_entropy_coeff_shape(
        self, tiny_policy, features
    ):
        rollout = tiny_policy.forward(features, mode="sample", rng=0)
        with pytest.raises(TrainingError):
            tiny_policy.backward(rollout, np.zeros(2),
                                 entropy_coeff=np.zeros(3))

    def test_config_dict_round_trip(self, tiny_policy):
        config = tiny_policy.config_dict()
        clone = PointerNetworkPolicy(**config)
        assert clone.hidden_size == tiny_policy.hidden_size
        assert clone.feature_dim == tiny_policy.feature_dim


class TestPaddedBatches:
    """Variable-length (padded) greedy decoding via ``lengths``."""

    def test_padded_rows_match_solo_decodes(self, tiny_policy, rng):
        sizes = [3, 5, 2, 4]
        rows = [rng.normal(size=(n, 4)) for n in sizes]
        features = np.zeros((len(sizes), max(sizes), 4))
        for b, row in enumerate(rows):
            features[b, : len(row)] = row
        batched = tiny_policy.forward(
            features, mode="greedy", lengths=np.array(sizes)
        )
        for b, row in enumerate(rows):
            solo = tiny_policy.forward(row[None, :, :], mode="greedy")
            np.testing.assert_array_equal(
                batched.actions[b, : sizes[b]], solo.actions[0]
            )
            assert batched.log_prob[b] == pytest.approx(solo.log_prob[0])

    def test_padded_rows_are_permutations_of_real_positions(
        self, tiny_policy, rng
    ):
        sizes = np.array([2, 5, 3])
        features = rng.normal(size=(3, 5, 4))
        rollout = tiny_policy.forward(features, mode="greedy", lengths=sizes)
        for b, n in enumerate(sizes):
            assert sorted(rollout.actions[b, :n]) == list(range(n))

    def test_lengths_require_greedy_mode(self, tiny_policy, features):
        with pytest.raises(TrainingError):
            tiny_policy.forward(
                features, mode="sample", lengths=np.array([5, 3])
            )

    def test_out_of_range_lengths_rejected(self, tiny_policy, features):
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, lengths=np.array([5, 6]))
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, lengths=np.array([0, 5]))
        with pytest.raises(TrainingError):
            tiny_policy.forward(features, lengths=np.array([5]))

    def test_backward_rejects_padded_rollouts(self, tiny_policy, features):
        rollout = tiny_policy.forward(
            features, mode="greedy", lengths=np.array([5, 3])
        )
        with pytest.raises(TrainingError):
            tiny_policy.backward(rollout, np.ones(2))

    def test_keep_caches_false_matches_and_blocks_backward(
        self, tiny_policy, features
    ):
        cached = tiny_policy.forward(features, mode="greedy")
        cacheless = tiny_policy.forward(
            features, mode="greedy", keep_caches=False
        )
        np.testing.assert_array_equal(cacheless.actions, cached.actions)
        assert cacheless.steps == [] and cacheless.enc_caches == []
        with pytest.raises(TrainingError):
            tiny_policy.backward(cacheless, np.ones(2))
