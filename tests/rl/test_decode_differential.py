"""``greedy_decode`` against a verbatim copy of its previous version.

The decode step was restructured for speed (one fused gate sigmoid,
recurrent weights cast once per decode, incremental ready lists, length
masking skipped while every row is active).  Each part is exact by
construction, so the decode must reproduce the previous implementation
byte for byte.  Comparing ``greedy_decode`` with ``forward`` cannot
show that: both share the LSTM gate helper, so a change moving the two
at once would pass.  This file therefore keeps the previous
``greedy_decode``, ``LSTMCell.forward_from_projection`` and
``F.sigmoid`` verbatim (only ``self`` became an argument) and compares
exact ``actions`` and ``log_prob`` bytes.

The oracle runs on the same host and BLAS kernels as the code under
test; there are no stored goldens, because decode floats depend on the
BLAS kernel family.  CI runs this file a second time under
``OPENBLAS_CORETYPE=Haswell`` (the AVX2 kernels).

The decode also runs its network lazily: steps where every row is
forced read no network output, so the encoder and decoder LSTMs run
only up to the last step with a choice.  ``TestLazyNetwork`` counts the
LSTM steps and context projections a decode makes, and
``TestLazyMatchesPreviousDecode`` holds the shapes that laziness
changes most (one live step first or last, fully forced padded rows) to
the previous decode's bytes.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.embedding.queue import build_encoder_queue, pad_queues
from repro.errors import TrainingError
from repro.graphs.sampler import sample_synthetic_dag
from repro.models.zoo import FIG4_MODELS, build_model
from repro.nn import functional as F
from repro.nn.attention import AttentionHead
from repro.nn.lstm import LSTMCell
from repro.rl.ptrnet import PointerNetworkPolicy, PolicyRollout
from repro.rl.respect import RespectScheduler
from repro.tpu.quantize import quantize_graph


# ---------------------------------------------------------------------------
# The previous decode, kept verbatim as the oracle.


def _previous_sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    one_plus = 1.0 + z
    out = np.where(x >= 0, 1.0 / one_plus, z / one_plus)
    return out.astype(float, copy=False)


def _previous_forward_from_projection(cell, x_proj, h, c):
    hidden = cell.hidden_size
    z = x_proj + h @ cell.w_h.value + cell.bias.value
    i = _previous_sigmoid(z[:, :hidden])
    f = _previous_sigmoid(z[:, hidden : 2 * hidden])
    g = F.tanh(z[:, 2 * hidden : 3 * hidden])
    o = _previous_sigmoid(z[:, 3 * hidden :])
    c_next = f * c + i * g
    h_next = o * F.tanh(c_next)
    return h_next, c_next


def _previous_greedy_decode(
    policy: PointerNetworkPolicy,
    features: np.ndarray,
    precedence: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> PolicyRollout:
    if features.ndim != 3:
        raise TrainingError(
            f"features must be [batch, nodes, dim], got shape {features.shape}"
        )
    if features.shape[2] != policy.feature_dim:
        raise TrainingError(
            f"feature dim mismatch: policy expects {policy.feature_dim}, "
            f"got {features.shape[2]}"
        )
    features = np.asarray(features, dtype=policy.w_emb.value.dtype)
    batch, num_nodes, _ = features.shape
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=int)
        if lengths.shape != (batch,):
            raise TrainingError(
                f"lengths must be [batch], got shape {lengths.shape}"
            )
        if (lengths < 1).any() or (lengths > num_nodes).any():
            raise TrainingError(
                f"lengths must lie in [1, {num_nodes}], got {lengths}"
            )
    remaining: Optional[np.ndarray] = None
    if precedence is not None:
        precedence = np.asarray(precedence, dtype=bool)
        if precedence.shape != (batch, num_nodes, num_nodes):
            raise TrainingError(
                f"precedence must be [batch, nodes, nodes], got "
                f"{precedence.shape}"
            )
        remaining = precedence.sum(axis=2).astype(int)  # unmet parents

    hidden = policy.hidden_size
    emb = features @ policy.w_emb.value + policy.b_emb.value  # [B, T, H]
    # Hoisting is only bitwise-safe when the replaced per-step matmul
    # and the large GEMM hit the same BLAS kernel; a one-row matmul
    # ([1, H] @ [H, 4H]) can dispatch differently, so batch==1 keeps
    # the per-step projections (there is nothing to amortize anyway).
    hoist = batch > 1
    enc_proj = None
    dec_proj = None
    if hoist:
        flat = emb.reshape(batch * num_nodes, hidden)
        enc_proj = (flat @ policy.encoder.w_x.value).reshape(
            batch, num_nodes, 4 * hidden
        )
        dec_proj = (flat @ policy.decoder.w_x.value).reshape(
            batch, num_nodes, 4 * hidden
        )
    h, c = policy.encoder.initial_state(batch)
    context_list: List[np.ndarray] = []
    for t in range(num_nodes):
        h_next, c_next = _previous_forward_from_projection(
            policy.encoder,
            enc_proj[:, t, :]
            if enc_proj is not None
            else emb[:, t, :] @ policy.encoder.w_x.value,
            h,
            c,
        )
        if lengths is not None:
            active = (t < lengths)[:, None]
            h_next = np.where(active, h_next, h)
            c_next = np.where(active, c_next, c)
        h, c = h_next, c_next
        context_list.append(h)
    contexts = np.stack(context_list, axis=1)  # [B, T, H]

    # The context projections and the attention scratch buffers are
    # built on the first step with an unforced row, so a decode whose
    # every step is forced never pays for them.
    glimpse_ref: Optional[np.ndarray] = None
    pointer_ref: Optional[np.ndarray] = None
    glimpse_scratch: Optional[np.ndarray] = None
    pointer_scratch: Optional[np.ndarray] = None
    dh, dc = h, c
    # The first decoder input is the trainable d0 row, tiled *before*
    # projecting: a 1-D ``d0 @ w_x`` takes a different BLAS path and
    # is not bitwise-equal to the tiled 2-D product ``forward`` uses.
    x_proj = np.tile(policy.d0.value, (batch, 1)) @ policy.decoder.w_x.value
    visited = np.zeros((batch, num_nodes), dtype=bool)
    if lengths is not None:
        visited |= np.arange(num_nodes)[None, :] >= lengths[:, None]
    log_prob = np.zeros(batch)
    actions_out = np.zeros((batch, num_nodes), dtype=int)
    rows = np.arange(batch)
    for i in range(num_nodes):
        dh, dc = _previous_forward_from_projection(
            policy.decoder, x_proj, dh, dc
        )
        mask = ~visited
        if remaining is not None:
            mask &= remaining == 0
        finished: Optional[np.ndarray] = None
        if lengths is not None:
            finished = i >= lengths
            mask[finished, 0] = True
        # Forced rows (one selectable column) pick it with
        # log-probability exactly 0.0; only the other rows run the
        # attention heads (see the docstring).
        acts = np.argmax(mask, axis=1)
        live = np.flatnonzero(np.count_nonzero(mask, axis=1) != 1)
        if live.size:
            if glimpse_ref is None:
                glimpse_ref = policy.glimpse.attention.precompute_ref(contexts)
                pointer_ref = policy.pointer.precompute_ref(contexts)
                scratch_dtype = np.result_type(glimpse_ref, dh)
                glimpse_scratch = np.zeros(glimpse_ref.shape, scratch_dtype)
                pointer_scratch = np.zeros(pointer_ref.shape, scratch_dtype)
            live_mask = mask[live]
            # Only the columns some live row can pick are scored.
            cols = np.flatnonzero(live_mask.any(axis=0))
            g_scores = policy.glimpse.attention.scores(
                dh, glimpse_ref, live, cols, glimpse_scratch
            )
            weights = F.masked_softmax(g_scores, live_mask)
            # Forced rows' glimpses stay zero: the pointer's query
            # projection runs over the whole batch, and their scores
            # are never read.
            glimpse_vec = np.zeros_like(dh)
            glimpse_vec[live] = np.einsum(
                "bt,bth->bh", weights, contexts[live]
            )
            logits = policy.pointer.scores(
                glimpse_vec, pointer_ref, live, cols, pointer_scratch
            )
            masked_logits = np.where(live_mask, logits, F.MASK_LOGIT)
            live_acts = np.argmax(masked_logits, axis=1)
            # Gathered log-softmax: the same floats as indexing
            # ``F.log_softmax(masked_logits)`` at ``live_acts``,
            # without the [K, T] materialization.
            shifted = masked_logits - np.max(
                masked_logits, axis=1, keepdims=True
            )
            acts[live] = live_acts
            log_prob[live] += shifted[
                np.arange(live.size), live_acts
            ] - np.log(np.sum(np.exp(shifted), axis=1))
        actions_out[:, i] = acts
        visited[rows, acts] = True
        if remaining is not None:
            delta = precedence[rows, :, acts].astype(int)
            if finished is not None:
                delta[finished] = 0  # dummy picks must not corrupt
            remaining -= delta
        x_proj = (
            dec_proj[rows, acts, :]
            if dec_proj is not None
            else emb[rows, acts, :] @ policy.decoder.w_x.value
        )
    return PolicyRollout(
        actions=actions_out,
        log_prob=log_prob,
        entropy=np.zeros(batch),
        features=features,
        emb=emb,
        contexts=contexts,
        enc_caches=[],
        steps=[],
        lengths=lengths,
    )


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scheduler():
    return RespectScheduler()


@pytest.fixture(scope="module")
def zoo_queues(scheduler):
    return {
        model: build_encoder_queue(
            quantize_graph(build_model(model)), scheduler.embedding_config
        )
        for model in FIG4_MODELS
    }


def assert_same_bytes(policy, features, precedence=None, lengths=None):
    got = policy.greedy_decode(features, precedence=precedence, lengths=lengths)
    want = _previous_greedy_decode(
        policy, features, precedence=precedence, lengths=lengths
    )
    assert got.actions.dtype == want.actions.dtype
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.log_prob.dtype == want.log_prob.dtype
    assert got.log_prob.tobytes() == want.log_prob.tobytes()
    return got


def serve_batch(scheduler, seed):
    """A padded batch shaped like a micro-batched serve: B in 1..9."""
    rng = np.random.default_rng(seed)
    graphs = [
        sample_synthetic_dag(
            num_nodes=int(rng.choice([30, 60, 90])),
            degree=int(rng.choice([2, 3, 4])),
            seed=int(rng.integers(2**31)),
        )
        for _ in range(1 + seed % 9)
    ]
    queues = [build_encoder_queue(g, scheduler.embedding_config) for g in graphs]
    return pad_queues(queues)


def chain_precedence(batch, num_nodes):
    precedence = np.zeros((batch, num_nodes, num_nodes), dtype=bool)
    for i in range(1, num_nodes):
        precedence[:, i, i - 1] = True
    return precedence


class TestMatchesPreviousDecode:
    @pytest.mark.parametrize("model", FIG4_MODELS)
    def test_fig4_models_float32_clone(self, scheduler, zoo_queues, model):
        # B=1 with ``lengths``, exactly as ``schedule_stage_sweep`` and
        # ``decode_orders`` call it, and without, as ``schedule`` does.
        queue = zoo_queues[model]
        for lengths in (np.array([len(queue)]), None):
            assert_same_bytes(
                scheduler.inference_policy,
                queue.features[None, :, :],
                precedence=queue.precedence[None, :, :],
                lengths=lengths,
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_serve_shaped_padded_batches(self, scheduler, seed):
        features, precedence, lengths = serve_batch(scheduler, seed)
        assert_same_bytes(
            scheduler.inference_policy, features, precedence, lengths
        )

    @pytest.mark.parametrize("model", ["Xception", "ResNet50", "DenseNet121"])
    def test_float64_policy(self, scheduler, zoo_queues, model):
        queue = zoo_queues[model]
        assert scheduler.policy.w_emb.value.dtype == np.float64
        assert_same_bytes(
            scheduler.policy,
            queue.features[None, :, :],
            precedence=queue.precedence[None, :, :],
            lengths=np.array([len(queue)]),
        )

    def test_float64_policy_padded_batch(self, scheduler):
        assert_same_bytes(scheduler.policy, *serve_batch(scheduler, 7))

    @pytest.mark.parametrize("seed", [3, 8])
    def test_no_precedence(self, scheduler, seed):
        # Every step is a live step over all unvisited nodes.
        features, _, lengths = serve_batch(scheduler, seed)
        assert_same_bytes(scheduler.inference_policy, features, lengths=lengths)
        assert_same_bytes(scheduler.inference_policy, features[:1])

    @pytest.mark.parametrize("batch", [1, 3])
    def test_chain(self, scheduler, rng, batch):
        features = rng.normal(size=(batch, 40, scheduler.policy.feature_dim))
        got = assert_same_bytes(
            scheduler.inference_policy,
            features,
            precedence=chain_precedence(batch, 40),
        )
        assert got.log_prob.tolist() == [0.0] * batch

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_finish_while_others_branch(self, rng, dtype):
        # Row 0 fans out to five ready children after a short chain;
        # rows 1 and 2 are chains that finish (leaving only their dummy
        # position) while row 0 still branches.
        policy = PointerNetworkPolicy(
            feature_dim=4, hidden_size=6, logit_clip=5.0, seed=1
        )
        policy.cast(dtype)
        num_nodes = 8
        features = rng.normal(size=(3, num_nodes, 4))
        lengths = np.array([8, 3, 5])
        precedence = np.zeros((3, num_nodes, num_nodes), dtype=bool)
        precedence[0, 1, 0] = precedence[0, 2, 1] = True
        precedence[0, 3:, 2] = True
        for b in (1, 2):
            for i in range(1, lengths[b]):
                precedence[b, i, i - 1] = True
        got = assert_same_bytes(policy, features, precedence, lengths)
        assert got.log_prob[0] != 0.0  # row 0 really branched


# ---------------------------------------------------------------------------
# Lazy evaluation: the network runs only for the steps that read it.


@pytest.fixture
def network_calls(monkeypatch):
    """Records every LSTM step (by cell) and context projection."""
    calls = {"cells": [], "refs": 0}
    lstm_step = LSTMCell.forward_from_projection
    precompute_ref = AttentionHead.precompute_ref

    def spy_step(cell, *args):
        calls["cells"].append(cell)
        return lstm_step(cell, *args)

    def spy_ref(head, contexts):
        calls["refs"] += 1
        return precompute_ref(head, contexts)

    monkeypatch.setattr(LSTMCell, "forward_from_projection", spy_step)
    monkeypatch.setattr(AttentionHead, "precompute_ref", spy_ref)
    return calls


def lstm_steps(policy, calls):
    """``(encoder steps, decoder steps)`` recorded by ``network_calls``."""
    cells = calls["cells"]
    return (
        sum(cell is policy.encoder for cell in cells),
        sum(cell is policy.decoder for cell in cells),
    )


def branch_at(batch, num_nodes, step):
    """Precedence whose only step with two ready nodes is ``step``.

    Nodes before ``step`` form a chain; nodes ``step`` and ``step + 1``
    both follow it, node ``step + 2`` follows both, and the rest chain
    on.  Step ``num_nodes - 2`` is the last step that can branch: the
    final step always has a single node left.
    """
    assert 0 <= step <= num_nodes - 2
    precedence = chain_precedence(batch, num_nodes)
    precedence[:, step + 1, step] = False
    if step:
        precedence[:, step + 1, step - 1] = True
    if step + 2 < num_nodes:
        precedence[:, step + 2, step] = True
    return precedence


class TestLazyNetwork:
    def test_chain_runs_no_lstm_step(self, scheduler, rng, network_calls):
        policy = scheduler.inference_policy
        features = rng.normal(size=(1, 40, policy.feature_dim))
        got = policy.greedy_decode(features, chain_precedence(1, 40))
        assert lstm_steps(policy, network_calls) == (0, 0)
        assert network_calls["refs"] == 0
        assert got.contexts is None
        assert got.actions.tolist() == [list(range(40))]
        assert got.log_prob.tolist() == [0.0]

    def test_densenet121_runs_no_lstm_step(
        self, scheduler, zoo_queues, network_calls
    ):
        policy = scheduler.inference_policy
        queue = zoo_queues["DenseNet121"]
        got = policy.greedy_decode(
            queue.features[None, :, :], queue.precedence[None, :, :]
        )
        assert lstm_steps(policy, network_calls) == (0, 0)
        assert network_calls["refs"] == 0
        assert got.contexts is None

    @pytest.mark.parametrize("step", [0, 4, 10])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_last_live_step_bounds_decoder_steps(
        self, scheduler, rng, network_calls, batch, step
    ):
        policy = scheduler.inference_policy
        num_nodes = 12
        features = rng.normal(size=(batch, num_nodes, policy.feature_dim))
        got = policy.greedy_decode(features, branch_at(batch, num_nodes, step))
        assert lstm_steps(policy, network_calls) == (num_nodes, step + 1)
        assert network_calls["refs"] == 2  # glimpse and pointer, once each
        assert got.contexts.shape == (batch, num_nodes, policy.hidden_size)
        assert (got.log_prob != 0.0).all()


class TestLazyMatchesPreviousDecode:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_only_live_step(self, scheduler, rng, batch, where):
        num_nodes = 30
        step = 0 if where == "first" else num_nodes - 2
        policy = scheduler.inference_policy
        features = rng.normal(size=(batch, num_nodes, policy.feature_dim))
        got = assert_same_bytes(
            policy, features, branch_at(batch, num_nodes, step)
        )
        assert (got.log_prob != 0.0).all()

    @pytest.mark.parametrize("seed", [4, 5, 17])
    def test_padded_batch_with_a_fully_forced_row(self, scheduler, seed):
        # Row 0 becomes a chain over its own real nodes; the other rows
        # keep their synthetic DAGs and branch.
        features, precedence, lengths = serve_batch(scheduler, seed)
        assert len(lengths) >= 3
        precedence = precedence.copy()
        precedence[0] = False
        for i in range(1, lengths[0]):
            precedence[0, i, i - 1] = True
        got = assert_same_bytes(
            scheduler.inference_policy, features, precedence, lengths
        )
        assert got.log_prob[0] == 0.0
        assert (got.log_prob[1:] != 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_padded_chains_of_different_lengths(self, rng, dtype):
        # Every step is forced, so no LSTM step runs at all.
        policy = PointerNetworkPolicy(
            feature_dim=4, hidden_size=6, logit_clip=5.0, seed=1
        )
        policy.cast(dtype)
        lengths = np.array([8, 3, 5])
        precedence = np.zeros((3, 8, 8), dtype=bool)
        for b, size in enumerate(lengths):
            for i in range(1, size):
                precedence[b, i, i - 1] = True
        got = assert_same_bytes(
            policy, rng.normal(size=(3, 8, 4)), precedence, lengths
        )
        assert got.contexts is None
