"""Gradient-checked tests for the glimpse and pointer attention heads."""

import numpy as np

from repro.nn.attention import AttentionHead, Glimpse

from tests.nn.test_lstm import numeric_grad


class TestAttentionHead:
    def test_score_shape(self, rng):
        head = AttentionHead(5, rng=1)
        contexts = rng.normal(size=(2, 4, 5))
        query = rng.normal(size=(2, 5))
        scores, _ = head.forward(contexts, query)
        assert scores.shape == (2, 4)

    def test_logit_clip_bounds_scores(self, rng):
        head = AttentionHead(5, logit_clip=3.0, rng=1)
        contexts = 50 * rng.normal(size=(2, 4, 5))
        query = 50 * rng.normal(size=(2, 5))
        scores, _ = head.forward(contexts, query)
        assert np.all(np.abs(scores) <= 3.0 + 1e-12)

    def test_gradient_check(self, rng):
        head = AttentionHead(3, logit_clip=4.0, rng=2)
        contexts = rng.normal(size=(2, 3, 3))
        query = rng.normal(size=(2, 3))
        dscores = rng.normal(size=(2, 3))

        def loss():
            scores, _ = head.forward(contexts, query)
            return float(np.sum(scores * dscores))

        head.zero_grad()
        _, cache = head.forward(contexts, query)
        dctx, dq = head.backward(dscores, cache)
        np.testing.assert_allclose(numeric_grad(loss, contexts), dctx, atol=1e-6)
        np.testing.assert_allclose(numeric_grad(loss, query), dq, atol=1e-6)
        for name, param in head.named_parameters():
            np.testing.assert_allclose(
                numeric_grad(loss, param.value), param.grad, atol=1e-6,
                err_msg=f"param {name}",
            )

    def test_block_scores_match_forward_bitwise(self, rng):
        # Inference scoring of a rows x cols block must reproduce the
        # same entries of a full forward pass exactly, whatever stale
        # values the scratch buffer holds outside the block.
        head = AttentionHead(7, logit_clip=5.0, rng=3)
        contexts = rng.normal(size=(5, 11, 7))
        query = rng.normal(size=(5, 7))
        full, _ = head.forward(contexts, query)
        ref = head.precompute_ref(contexts)
        scratch = rng.normal(size=ref.shape)
        for rows, cols in [
            (np.arange(5), np.arange(11)),
            (np.array([1, 4]), np.array([0, 3, 10])),
            (np.array([2]), np.array([6])),
        ]:
            got = head.scores(query, ref, rows, cols, scratch)
            assert got.shape == (rows.size, 11)
            assert got[:, cols].tolist() == full[np.ix_(rows, cols)].tolist()


class TestGlimpse:
    def test_masked_positions_excluded(self, rng):
        glimpse = Glimpse(4, rng=3)
        contexts = rng.normal(size=(1, 3, 4))
        query = rng.normal(size=(1, 4))
        mask = np.array([[True, False, True]])
        _, cache = glimpse.forward(contexts, query, mask)
        assert cache["weights"][0, 1] == 0.0

    def test_gradient_check_with_mask(self, rng):
        glimpse = Glimpse(3, rng=4)
        contexts = rng.normal(size=(2, 4, 3))
        query = rng.normal(size=(2, 3))
        mask = np.array(
            [[True, True, False, True], [True, False, True, True]]
        )
        dg = rng.normal(size=(2, 3))

        def loss():
            g, _ = glimpse.forward(contexts, query, mask)
            return float(np.sum(g * dg))

        glimpse.zero_grad()
        _, cache = glimpse.forward(contexts, query, mask)
        dctx, dq = glimpse.backward(dg, cache)
        np.testing.assert_allclose(numeric_grad(loss, contexts), dctx, atol=1e-6)
        np.testing.assert_allclose(numeric_grad(loss, query), dq, atol=1e-6)
        for name, param in glimpse.named_parameters():
            np.testing.assert_allclose(
                numeric_grad(loss, param.value), param.grad, atol=1e-6,
                err_msg=f"param {name}",
            )
