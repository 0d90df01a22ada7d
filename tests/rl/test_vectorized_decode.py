"""Bitwise equivalence of the vectorized greedy decode.

:meth:`PointerNetworkPolicy.greedy_decode` restructures the inference
unroll (hoisted LSTM projections, cacheless attention, gathered
log-softmax, no attention for forced rows, ready-column scoring) for
throughput; its contract is *bit-identity* with
``forward(mode="greedy")`` — not closeness.  The serving tier's cache
keys and the in-process-vs-worker-pool equivalence guarantees all stand
on this, so every comparison below is exact (``==`` on floats).
"""

import numpy as np
import pytest

from repro.embedding.queue import build_encoder_queue, pad_queues
from repro.models.zoo import FIG4_MODELS, build_model
from repro.nn import functional as F
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.respect import RespectScheduler
from repro.tpu.quantize import quantize_graph


@pytest.fixture(scope="module")
def scheduler():
    return RespectScheduler()


@pytest.fixture
def policy():
    return PointerNetworkPolicy(feature_dim=4, hidden_size=6, logit_clip=5.0, seed=1)


def chain_precedence(batch: int, num_nodes: int) -> np.ndarray:
    """precedence[b, i, j] = node i requires node j (a simple chain)."""
    p = np.zeros((batch, num_nodes, num_nodes), dtype=bool)
    for i in range(1, num_nodes):
        p[:, i, i - 1] = True
    return p


def assert_rollouts_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.actions, b.actions)
    assert a.log_prob.tolist() == b.log_prob.tolist()  # exact, not allclose


class TestGreedyDecodeEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_unconstrained(self, policy, rng, dtype, batch):
        if dtype is np.float32:
            policy.cast(np.float32)
        features = rng.normal(size=(batch, 5, 4))
        assert_rollouts_bitwise_equal(
            policy.greedy_decode(features),
            policy.forward(features, mode="greedy", keep_caches=False),
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_precedence_constrained(self, policy, rng, dtype, batch):
        if dtype is np.float32:
            policy.cast(np.float32)
        features = rng.normal(size=(batch, 6, 4))
        precedence = chain_precedence(batch, 6)
        assert_rollouts_bitwise_equal(
            policy.greedy_decode(features, precedence=precedence),
            policy.forward(
                features,
                mode="greedy",
                precedence=precedence,
                keep_caches=False,
            ),
        )

    def test_padded_batch(self, policy, rng):
        # Ragged graphs decode as one padded batch; padded rows must not
        # perturb the real rows' floats.
        features = rng.normal(size=(3, 7, 4))
        lengths = np.array([7, 4, 2])
        assert_rollouts_bitwise_equal(
            policy.greedy_decode(features, lengths=lengths),
            policy.forward(
                features, mode="greedy", lengths=lengths, keep_caches=False
            ),
        )

    def test_padded_rows_match_solo_decodes(self, policy, rng):
        features = rng.normal(size=(2, 6, 4))
        lengths = np.array([6, 3])
        batched = policy.greedy_decode(features, lengths=lengths)
        for b, length in enumerate(lengths):
            solo = policy.greedy_decode(features[b : b + 1, :length, :])
            np.testing.assert_array_equal(
                batched.actions[b, :length], solo.actions[0]
            )
            assert batched.log_prob[b] == solo.log_prob[0]


def count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` so calls are counted; returns the call list."""
    calls = []
    original = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, spy)
    return calls


def greedy_reference(policy, features, **kwargs):
    return policy.forward(features, mode="greedy", keep_caches=False, **kwargs)


class TestForcedSteps:
    """Steps with one selectable column per row skip both attention heads."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_chain_never_builds_attention(
        self, policy, rng, monkeypatch, dtype, batch
    ):
        if dtype is np.float32:
            policy.cast(np.float32)
        features = rng.normal(size=(batch, 9, 4))
        precedence = chain_precedence(batch, 9)
        expected = greedy_reference(policy, features, precedence=precedence)
        refs = count_calls(monkeypatch, policy.glimpse.attention, "precompute_ref")
        refs += count_calls(monkeypatch, policy.pointer, "precompute_ref")
        scores = count_calls(monkeypatch, policy.pointer, "scores")
        got = policy.greedy_decode(features, precedence=precedence)
        assert_rollouts_bitwise_equal(got, expected)
        assert got.log_prob.tolist() == [0.0] * batch
        assert refs == [] and scores == []

    def test_padded_rows_finish_while_others_branch(
        self, policy, rng, monkeypatch
    ):
        # Row 0 is a chain 0->1->2 fanning out to five ready children;
        # rows 1 and 2 are short chains that finish (and then only
        # offer their dummy position 0) while row 0 still has several
        # ready nodes.  Steps 0-2 are forced in every row; later steps
        # mix forced, finished and branching rows.
        num_nodes = 8
        features = rng.normal(size=(3, num_nodes, 4))
        lengths = np.array([8, 3, 5])
        precedence = np.zeros((3, num_nodes, num_nodes), dtype=bool)
        precedence[0, 1, 0] = precedence[0, 2, 1] = True
        precedence[0, 3:, 2] = True
        for b in (1, 2):
            for i in range(1, lengths[b]):
                precedence[b, i, i - 1] = True
        expected = greedy_reference(
            policy, features, precedence=precedence, lengths=lengths
        )
        refs = count_calls(monkeypatch, policy.pointer, "precompute_ref")
        got = policy.greedy_decode(
            features, precedence=precedence, lengths=lengths
        )
        assert_rollouts_bitwise_equal(got, expected)
        assert len(refs) == 1  # built lazily, once
        assert got.log_prob[0] != 0.0  # row 0 really branched
        for b, length in enumerate(lengths):
            solo = policy.greedy_decode(
                features[b : b + 1, :length, :],
                precedence=precedence[b : b + 1, :length, :length],
            )
            np.testing.assert_array_equal(got.actions[b, :length], solo.actions[0])
            assert got.log_prob[b] == solo.log_prob[0]

    @pytest.mark.parametrize("model", FIG4_MODELS)
    def test_zoo_served_orders_and_log_probs_unchanged(self, scheduler, model):
        graph = quantize_graph(build_model(model))
        queue = build_encoder_queue(graph, scheduler.embedding_config)
        expected = greedy_reference(
            scheduler.inference_policy,
            queue.features[None, :, :],
            precedence=queue.precedence[None, :, :],
        )
        assert scheduler.decode_orders([graph])[0] == queue.names_for(
            expected.actions[0]
        )
        result = scheduler.schedule(graph, 4)
        assert result.extras["log_prob"] == float(expected.log_prob[0])


class TestSchedulerDecode:
    def test_schedule_batch_matches_forward(self, scheduler, small_sampler):
        # The scheduler's one decode path must reproduce the general
        # ``forward`` unroll on its inference policy, float for float.
        graphs = [small_sampler.sample() for _ in range(4)]
        queues = [
            build_encoder_queue(g, scheduler.embedding_config) for g in graphs
        ]
        features, precedence, lengths = pad_queues(queues)
        reference = greedy_reference(
            scheduler.inference_policy,
            features,
            precedence=precedence,
            lengths=lengths,
        )
        orders = scheduler.decode_orders(graphs)
        results = scheduler.schedule_batch(graphs, 4)
        for b, queue in enumerate(queues):
            assert orders[b] == queue.names_for(
                reference.actions[b, : lengths[b]]
            )
            assert results[b].extras["log_prob"] == float(reference.log_prob[b])

    def test_decode_config_carries_no_decode_path_flag(self, scheduler):
        # One decode path: nothing besides packing/embedding options and
        # the fingerprint reaches a worker's checkpoint sidecar.
        assert "use_vectorized_decode" not in scheduler.decode_config()


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_branch_free_matches_two_branch_reference(self, rng, dtype):
        x = np.concatenate(
            [
                rng.normal(scale=3.0, size=500),
                np.array([0.0, -0.0, 1e-9, -1e-9, 50.0, -50.0, 800.0, -800.0]),
            ]
        ).astype(dtype)
        # The classic masked two-pass evaluation the branch-free form
        # replaced; results must agree bit for bit.
        out = np.empty_like(x, dtype=float)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        out[~pos] = ez / (1.0 + ez)
        got = F.sigmoid(x)
        assert got.dtype == out.dtype
        assert got.tolist() == out.tolist()
