"""LSTM pointer network (PtrNet) policy — the paper's RL agent.

Architecture (Fig. 1b / Algorithm 1):

* a linear projection embeds each node's feature row into the hidden
  space;
* an **encoder** LSTM digests the input queue ``q`` and produces the
  context matrix ``C`` (one context per node) plus its final latent
  state;
* a **decoder** LSTM emits one node per step: its hidden state is
  refined by a *glimpse* attention over ``C``, a *pointer* head scores
  every node, visited nodes are masked to ``-inf``, and the next node is
  sampled (training) or taken greedily (inference).  The chosen node's
  embedding becomes the next decoder input; the first decoder input is a
  trainable vector.

``forward`` records every intermediate needed by ``backward``, which
implements full backpropagation-through-time for the REINFORCE surrogate
loss ``sum_b coeff_b * (-log p(pi_b))`` — the same code path serves
policy gradients (``coeff = cost - baseline``) and supervised imitation
(``coeff = 1``, teacher-forced actions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TrainingError
from repro.nn import functional as F
from repro.nn.attention import AttentionHead, Glimpse
from repro.nn.init import glorot_uniform, zeros
from repro.nn.lstm import LSTMCell
from repro.nn.params import Module
from repro.utils.rng import SeedLike, resolve_rng

_MODES = ("sample", "greedy", "teacher")


@dataclass
class _StepCache:
    """Per-decode-step intermediates for BPTT."""

    lstm_cache: Dict[str, np.ndarray]
    glimpse_cache: Dict[str, np.ndarray]
    pointer_cache: Dict[str, np.ndarray]
    mask: np.ndarray          # [B, T] bool, True = selectable
    probs: np.ndarray         # [B, T] masked softmax
    actions: np.ndarray       # [B] int
    prev_actions: Optional[np.ndarray]  # [B] int or None for step 0


@dataclass
class PolicyRollout:
    """Result of one policy unroll over a batch of graphs.

    ``actions[b]`` is the node-picking order ``pi`` for batch row ``b``
    (indices into the encoder queue); ``log_prob[b]`` is
    ``log p(pi_b | G_b)``.
    """

    actions: np.ndarray       # [B, T] int
    log_prob: np.ndarray      # [B]
    entropy: np.ndarray       # [B] mean per-step entropy
    # -- private intermediates consumed by backward --------------------
    features: np.ndarray
    emb: np.ndarray
    #: ``[B, T, H]`` encoder contexts.  ``None`` in a greedy rollout
    #: whose every step was forced: ``greedy_decode`` then never runs the
    #: encoder, and its rollouts cannot be ``backward``-ed anyway.
    contexts: Optional[np.ndarray]
    enc_caches: List[Dict[str, np.ndarray]]
    steps: List[_StepCache]
    #: Real node counts per row for padded batches; ``None`` when every
    #: row uses the full unroll.  ``actions[b, lengths[b]:]`` is padding.
    lengths: Optional[np.ndarray] = None


class PointerNetworkPolicy(Module):
    """Encoder/decoder LSTM-PtrNet with glimpse + pointer attention.

    Parameters
    ----------
    feature_dim:
        Width of the embedding rows (see :class:`EmbeddingConfig`).
    hidden_size:
        LSTM width.  The paper uses 256; CPU-scale configurations in this
        repo default to smaller sizes (see the training examples).
    logit_clip:
        Tanh clipping constant ``C`` on pointer logits (Bello et al.);
        0 disables.
    seed:
        Parameter-initialization seed.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden_size: int = 64,
        logit_clip: float = 10.0,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if feature_dim < 1 or hidden_size < 1:
            raise TrainingError("feature_dim and hidden_size must be positive")
        rng = resolve_rng(seed)
        self.feature_dim = feature_dim
        self.hidden_size = hidden_size
        self.logit_clip = logit_clip
        self.w_emb = self.add_param("w_emb", glorot_uniform((feature_dim, hidden_size), rng))
        self.b_emb = self.add_param("b_emb", zeros((hidden_size,)))
        self.encoder = self.add_module("encoder", LSTMCell(hidden_size, hidden_size, rng))
        self.decoder = self.add_module("decoder", LSTMCell(hidden_size, hidden_size, rng))
        self.glimpse = self.add_module("glimpse", Glimpse(hidden_size, rng))
        self.pointer = self.add_module(
            "pointer", AttentionHead(hidden_size, logit_clip=logit_clip, rng=rng)
        )
        self.d0 = self.add_param("d0", glorot_uniform((hidden_size,), rng))

    # ------------------------------------------------------------------
    def forward(
        self,
        features: np.ndarray,
        mode: str = "greedy",
        target: Optional[np.ndarray] = None,
        rng: SeedLike = None,
        precedence: Optional[np.ndarray] = None,
        lengths: Optional[np.ndarray] = None,
        keep_caches: bool = True,
    ) -> PolicyRollout:
        """Unroll the policy over ``features`` (``[B, T, F]``).

        ``mode='sample'`` draws actions from the pointer distribution,
        ``'greedy'`` takes argmax, ``'teacher'`` follows ``target``
        (``[B, T]`` permutations) for supervised imitation.

        ``precedence`` (optional, ``[B, T, T]`` bool with
        ``precedence[b, i, j] = True`` iff queue position ``j`` is a
        parent of position ``i``) restricts every step's choices to
        *schedulable* nodes — those whose parents have all been picked.
        This is how the pointer decoder "reinforces the dependency
        constraints among nodes": any decoded order is then a valid
        topological order of the DAG.  A row left with no selectable
        node while it still has real nodes (cyclic precedence) raises
        :class:`~repro.errors.TrainingError` naming the row and step.

        ``lengths`` (optional, ``[B]`` int) enables *padded* batches of
        graphs with different node counts: row ``b`` treats only its
        first ``lengths[b]`` queue positions as real nodes.  Padded
        positions are never glimpsed at nor pointed to, the encoder state
        of a row freezes at its own final real node, and a row that has
        emitted all of its nodes keeps decoding dummies (position 0, zero
        log-probability contribution) until the longest row finishes, so
        ``actions[b, :lengths[b]]`` is exactly the permutation a solo
        unpadded decode of the same graph would produce.  Greedy-mode
        only — padded rollouts carry no consistent caches for BPTT.

        ``keep_caches=False`` drops the per-step BPTT intermediates
        (``O(T^2 H)`` memory).  Inference-only callers should disable
        them: retaining a fresh ``[B, T, H]`` array per head per step
        defeats numpy's buffer reuse and slows large-graph decoding
        several-fold.  A cacheless rollout cannot be ``backward``-ed.
        """
        if mode not in _MODES:
            raise TrainingError(f"unknown decode mode {mode!r}")
        if features.ndim != 3:
            raise TrainingError(
                f"features must be [batch, nodes, dim], got shape {features.shape}"
            )
        if features.shape[2] != self.feature_dim:
            raise TrainingError(
                f"feature dim mismatch: policy expects {self.feature_dim}, "
                f"got {features.shape[2]}"
            )
        if mode == "teacher":
            if target is None:
                raise TrainingError("teacher mode requires a target sequence")
            target = np.asarray(target, dtype=int)
            if target.shape != features.shape[:2]:
                raise TrainingError(
                    f"target shape {target.shape} must be [batch, nodes]"
                )
        rng = resolve_rng(rng)
        # Compute in the parameters' dtype (float32 for inference clones).
        features = np.asarray(features, dtype=self.w_emb.value.dtype)
        batch, num_nodes, _ = features.shape
        if lengths is not None:
            if mode != "greedy":
                raise TrainingError(
                    "variable-length (padded) batches support greedy "
                    "decoding only"
                )
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

        emb = features @ self.w_emb.value + self.b_emb.value  # [B, T, H]

        # Encoder pass.  With ``lengths``, a row's state freezes once its
        # real nodes run out, so the decoder is seeded by the same final
        # latent state a solo unpadded encode would produce.
        h, c = self.encoder.initial_state(batch)
        enc_caches: List[Dict[str, np.ndarray]] = []
        context_list: List[np.ndarray] = []
        for t in range(num_nodes):
            h_next, c_next, cache = self.encoder.forward(emb[:, t, :], h, c)
            if lengths is not None:
                active = (t < lengths)[:, None]
                h_next = np.where(active, h_next, h)
                c_next = np.where(active, c_next, c)
            h, c = h_next, c_next
            if keep_caches:
                enc_caches.append(cache)
            context_list.append(h)
        contexts = np.stack(context_list, axis=1)  # [B, T, H]

        # Decoder pass.  Context projections are loop-invariant: hoist
        # them so each step costs O(T H) instead of O(T H^2).
        glimpse_ref = self.glimpse.attention.precompute_ref(contexts)
        pointer_ref = self.pointer.precompute_ref(contexts)
        dh, dc = h, c  # final encoder latent state seeds the decoder
        d = np.tile(self.d0.value, (batch, 1))
        # Padded positions start out "visited": never glimpsed, never
        # pointed to, and (having no precedence entries) never unmasked.
        visited = np.zeros((batch, num_nodes), dtype=bool)
        if lengths is not None:
            visited |= np.arange(num_nodes)[None, :] >= lengths[:, None]
        log_prob = np.zeros(batch)
        entropy = np.zeros(batch)
        steps: List[_StepCache] = []
        actions_out = np.zeros((batch, num_nodes), dtype=int)
        prev_actions: Optional[np.ndarray] = None
        rows = np.arange(batch)
        for i in range(num_nodes):
            dh, dc, lstm_cache = self.decoder.forward(d, dh, dc)
            mask = ~visited
            if remaining is not None:
                mask &= remaining == 0
            finished: Optional[np.ndarray] = None
            if lengths is not None:
                # Rows that already emitted every real node have an
                # all-False mask; give them a dummy choice (position 0,
                # probability one) so the softmax stays finite.  Their
                # log-probability contribution is log(1) = 0 and their
                # trailing actions are sliced off by the caller.
                finished = i >= lengths
                mask[finished, 0] = True
            if remaining is not None:
                stuck = np.flatnonzero(~mask.any(axis=1))
                if stuck.size:
                    raise TrainingError(_stuck_message(int(stuck[0]), i))
            glimpse_vec, glimpse_cache = self.glimpse.forward(
                contexts, dh, mask, ref=glimpse_ref
            )
            logits, pointer_cache = self.pointer.forward(
                contexts, glimpse_vec, ref=pointer_ref
            )
            masked_logits = np.where(mask, logits, F.MASK_LOGIT)
            log_probs = F.log_softmax(masked_logits)
            probs = np.exp(log_probs)
            if mode == "teacher":
                acts = target[:, i]  # type: ignore[index]
                if not mask[rows, acts].all():
                    raise TrainingError(
                        f"teacher sequence picks a masked node at step {i} "
                        f"(revisit or precedence violation)"
                    )
            elif mode == "greedy":
                acts = np.argmax(masked_logits, axis=1)
            else:
                acts = np.array(
                    [rng.choice(num_nodes, p=probs[b]) for b in range(batch)]
                )
            step_log_prob = log_probs[rows, acts]
            if finished is not None:
                step_log_prob = np.where(finished, 0.0, step_log_prob)
            log_prob += step_log_prob
            if mode != "greedy":
                # Entropy is a training diagnostic; skip it on the
                # inference path.
                with np.errstate(divide="ignore", invalid="ignore"):
                    plogp = np.where(probs > 0, probs * log_probs, 0.0)
                entropy -= plogp.sum(axis=1) / num_nodes
            if keep_caches:
                steps.append(
                    _StepCache(
                        lstm_cache=lstm_cache,
                        glimpse_cache=glimpse_cache,
                        pointer_cache=pointer_cache,
                        mask=mask.copy(),
                        probs=probs,
                        actions=acts.copy(),
                        prev_actions=prev_actions,
                    )
                )
            actions_out[:, i] = acts
            visited[rows, acts] = True
            if remaining is not None:
                delta = precedence[rows, :, acts].astype(int)
                if finished is not None:
                    delta[finished] = 0  # dummy picks must not corrupt
                remaining -= delta
            d = emb[rows, acts, :]
            prev_actions = acts
        return PolicyRollout(
            actions=actions_out,
            log_prob=log_prob,
            entropy=entropy,
            features=features,
            emb=emb,
            contexts=contexts,
            enc_caches=enc_caches,
            steps=steps,
            lengths=lengths,
        )

    # ------------------------------------------------------------------
    def greedy_decode(
        self,
        features: np.ndarray,
        precedence: Optional[np.ndarray] = None,
        lengths: Optional[np.ndarray] = None,
    ) -> PolicyRollout:
        """Vectorized greedy inference, the same rollout as ``forward``.

        Produces the rollout of
        ``forward(features, mode="greedy", precedence=..., lengths=...,
        keep_caches=False)`` — same actions, same ``log_prob`` floats at
        the widths pinned below — but restructured for throughput:

        * both LSTM input projections are hoisted out of the time loops
          into single ``[B*T, H] @ [H, 4H]`` GEMMs when ``batch > 1``.
          Whether a slice of that GEMM is bitwise-equal to the per-step
          skinny matmul it replaces depends on the BLAS kernels chosen
          for the two shapes, so exactness is only established for the
          widths the tests pin: ``hidden_size=6`` (float64 and float32)
          and the shipped checkpoint's ``hidden_size=64`` (float32
          inference clone).  Other widths can differ in the last bits —
          with ``hidden_size=33`` and batch 8, some random policies pick
          different actions than ``forward``.  The pinned widths are
          exact on the BLAS kernels the tests run on; on OpenBLAS's AVX2
          kernels (``OPENBLAS_CORETYPE=Haswell`` or ``Zen``) the float32
          GEMM at ``hidden_size=64`` moves ``log_prob`` in the last bits
          against ``forward``, and a padded row's ``log_prob`` can differ
          from its solo decode even without hoisting;
        * the recurrent weights ``w_h`` and ``bias`` of both LSTMs are
          cast to the state dtype once per call
          (:meth:`LSTMCell.recurrent_weights`).  The state is float64
          even for the float32 inference clone, so ``forward`` up-casts
          ``w_h`` inside every ``h @ w_h``; the cast is exact and the
          matmul then sees the same float64 operand;
        * length masking (``np.where`` on the encoder state, dummy picks
          in the decoder) only starts at step ``lengths.min()``: before
          it every row is active and the masking is the identity;
        * the decoder input becomes a row gather of that projection
          instead of an embedding gather followed by a per-step matmul;
        * the selectable set is incremental, so a step touches only the
          pick's children, not the ``[B, T, T]`` precedence.  Each row
          keeps its list of ready nodes, every real node's children and
          its count of unpicked parents; a pick removes one node and
          readies the children whose count reaches zero, updating the
          ``[B, T]`` mask in place at just those columns.  The mask the
          attention reads is therefore the one ``forward`` builds.  A row with no ready node that still has
          real nodes left (cyclic precedence) raises
          :class:`~repro.errors.TrainingError` naming the row and step;
        * attention heads run cacheless and the per-step probability
          array (``exp`` of the full ``[B, T]`` log-softmax, unused by
          greedy decoding) is never materialized — the selected actions'
          log-probabilities are gathered straight from the shifted
          logits;
        * *forced* rows skip both attention heads.  A row is forced at a
          step when it has exactly one ready node — the common case on
          DNN graphs, whose topological ready set is almost always a
          single node; a finished padded row (only its dummy position 0
          left) is forced too.  A forced pick is read off the ready list
          without any numpy call.  The skip is exact: with
          one unmasked column its shifted logit is ``0`` and every other
          column sits at ``MASK_LOGIT - logit`` (about ``-1e9``; pointer
          logits are bounded by ``logit_clip`` or by the tanh
          activations), whose ``exp`` underflows to exactly ``0``, so the
          row's log-probability term is ``0.0 - log(1.0) = 0.0`` and the
          argmax can only pick the ready node.  The glimpse feeds nothing
          but the pointer logits, so it is skipped too;
        * the remaining rows run attention only at the columns some of
          them can pick (see :meth:`AttentionHead.scores` for why those
          scores stay bit-exact).  Softmax normalizers and the glimpse's
          weighted sum still run over all ``T`` columns: summing a subset
          would regroup the additions once three or more columns are
          selectable and could move ``log_prob``;
        * the network itself runs lazily.  A step is *live* when some row
          has two or more ready nodes; only a live step reads a network
          output.  The ready sets are walked at every step as above (so
          a cyclic precedence still raises at the same row and step),
          but the encoder pass, the ``batch > 1`` hoisted projections,
          the context projections (``precompute_ref``) and the attention
          scratch are built at the first live step.  The decoder LSTM
          steps of the forced steps before a live step run when that
          step arrives, in order, on the picks those steps made: the
          same inputs and shapes as an eager loop, so every float that
          is read comes out the same.  Steps after the last live step
          never run the network.  A decode with no live step (a chain,
          or DenseNet, whose dense connectivity fixes a total order)
          runs no LSTM step at all and returns ``contexts=None``.

        ``tests/rl/test_decode_differential.py`` keeps the previous
        implementation of this method verbatim and checks that actions
        and ``log_prob`` stay byte-identical to it.

        The returned rollout carries no caches and cannot be
        ``backward``-ed; training unrolls must use :meth:`forward`.
        """
        if features.ndim != 3:
            raise TrainingError(
                f"features must be [batch, nodes, dim], got shape {features.shape}"
            )
        if features.shape[2] != self.feature_dim:
            raise TrainingError(
                f"feature dim mismatch: policy expects {self.feature_dim}, "
                f"got {features.shape[2]}"
            )
        features = np.asarray(features, dtype=self.w_emb.value.dtype)
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
        if precedence is not None:
            precedence = np.asarray(precedence, dtype=bool)
            if precedence.shape != (batch, num_nodes, num_nodes):
                raise TrainingError(
                    f"precedence must be [batch, nodes, nodes], got "
                    f"{precedence.shape}"
                )

        emb = features @ self.w_emb.value + self.b_emb.value  # [B, T, H]
        sizes = [num_nodes] * batch if lengths is None else lengths.tolist()
        mask, ready, children, unmet = _ready_sets(precedence, sizes, num_nodes)
        log_prob = np.zeros(batch)
        actions_out = np.zeros((batch, num_nodes), dtype=int)
        rows = np.arange(batch)
        # The network runs lazily (see the docstring): ``contexts`` stays
        # None until the first step with a live row, and ``decoded``
        # counts the decoder LSTM steps run so far.
        contexts: Optional[np.ndarray] = None
        decoded = 0
        for i in range(num_nodes):
            # Forced rows (one ready node) take it with log-probability
            # exactly 0.0, finished rows their dummy position 0; only the
            # other rows run the attention heads (see the docstring).
            picks = [0] * batch
            live: List[int] = []
            for b in range(batch):
                row_ready = ready[b]
                if len(row_ready) == 1:
                    picks[b] = row_ready[0]
                elif row_ready:
                    live.append(b)
                elif i < sizes[b]:
                    raise TrainingError(_stuck_message(b, i))
            if live:
                if contexts is None:
                    contexts, dh, dc, dec_proj = self._greedy_encode(emb, lengths)
                    dec_w_h, dec_bias = self.decoder.recurrent_weights(dh.dtype)
                    glimpse_ref = self.glimpse.attention.precompute_ref(contexts)
                    pointer_ref = self.pointer.precompute_ref(contexts)
                    scratch_dtype = np.result_type(glimpse_ref, dh)
                    glimpse_scratch = np.zeros(glimpse_ref.shape, scratch_dtype)
                    pointer_scratch = np.zeros(pointer_ref.shape, scratch_dtype)
                # Catch the decoder up to this step: each pending step
                # reads the picks of the step before it.
                for j in range(decoded, i + 1):
                    if j == 0:
                        # The first decoder input is the trainable d0
                        # row, tiled *before* projecting: a 1-D
                        # ``d0 @ w_x`` takes a different BLAS path and is
                        # not bitwise-equal to the tiled 2-D product
                        # ``forward`` uses.
                        x_proj = (
                            np.tile(self.d0.value, (batch, 1))
                            @ self.decoder.w_x.value
                        )
                    elif dec_proj is not None:
                        x_proj = dec_proj[rows, actions_out[:, j - 1], :]
                    else:
                        x_proj = (
                            emb[rows, actions_out[:, j - 1], :]
                            @ self.decoder.w_x.value
                        )
                    dh, dc = self.decoder.forward_from_projection(
                        x_proj, dh, dc, dec_w_h, dec_bias
                    )
                decoded = i + 1
                live_rows = np.array(live)
                live_mask = mask[live_rows]
                # Only the columns some live row can pick are scored.
                cols = live_mask.any(axis=0).nonzero()[0]
                g_scores = self.glimpse.attention.scores(
                    dh, glimpse_ref, live_rows, cols, glimpse_scratch
                )
                weights = F.masked_softmax(g_scores, live_mask)
                # Forced rows' glimpses stay zero: the pointer's query
                # projection runs over the whole batch, and their scores
                # are never read.
                glimpse_vec = np.zeros_like(dh)
                glimpse_vec[live_rows] = np.einsum(
                    "bt,bth->bh", weights, contexts[live_rows]
                )
                logits = self.pointer.scores(
                    glimpse_vec, pointer_ref, live_rows, cols, pointer_scratch
                )
                masked_logits = np.where(live_mask, logits, F.MASK_LOGIT)
                live_acts = masked_logits.argmax(axis=1)
                # Gathered log-softmax: the same floats as indexing
                # ``F.log_softmax(masked_logits)`` at ``live_acts``,
                # without the [K, T] materialization.
                shifted = masked_logits - np.maximum.reduce(
                    masked_logits, axis=1, keepdims=True
                )
                log_prob[live_rows] += shifted[
                    np.arange(live_rows.size), live_acts
                ] - np.log(np.add.reduce(np.exp(shifted), axis=1))
                for b, node in zip(live, live_acts.tolist()):
                    picks[b] = node
            actions_out[:, i] = picks
            # Retire each real pick: its children lose an unmet parent
            # and join the ready list (and the mask) when none is left.
            # Dummy picks of finished rows change nothing.
            for b in range(batch):
                if i < sizes[b]:
                    node = picks[b]
                    ready[b].remove(node)
                    mask[b, node] = False
                    row_unmet = unmet[b]
                    for child in children[b][node]:
                        row_unmet[child] -= 1
                        if not row_unmet[child]:
                            ready[b].append(child)
                            mask[b, child] = True
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

    def _greedy_encode(self, emb: np.ndarray, lengths: Optional[np.ndarray]):
        """Encoder pass of :meth:`greedy_decode`.

        Returns ``(contexts, h, c, dec_proj)``: the ``[B, T, H]`` context
        matrix, the final encoder state that seeds the decoder, and the
        hoisted decoder input projection (``None`` when ``batch == 1``).
        With ``lengths``, a row's state freezes at its own final real
        node, so the decoder is seeded by the same latent state a solo
        unpadded encode would produce.
        """
        batch, num_nodes, hidden = emb.shape
        # Hoisting is only bitwise-safe when the replaced per-step matmul
        # and the large GEMM hit the same BLAS kernel; a one-row matmul
        # ([1, H] @ [H, 4H]) can dispatch differently, so batch==1 keeps
        # the per-step projections (there is nothing to amortize anyway).
        enc_proj = None
        dec_proj = None
        if batch > 1:
            flat = emb.reshape(batch * num_nodes, hidden)
            enc_proj = (flat @ self.encoder.w_x.value).reshape(
                batch, num_nodes, 4 * hidden
            )
            dec_proj = (flat @ self.decoder.w_x.value).reshape(
                batch, num_nodes, 4 * hidden
            )
        h, c = self.encoder.initial_state(batch)
        enc_w_h, enc_bias = self.encoder.recurrent_weights(h.dtype)
        # Before step ``min(lengths)`` every row is still active, so the
        # length masking has nothing to do.
        all_active = num_nodes if lengths is None else int(lengths.min())
        context_list: List[np.ndarray] = []
        for t in range(num_nodes):
            h_next, c_next = self.encoder.forward_from_projection(
                enc_proj[:, t, :]
                if enc_proj is not None
                else emb[:, t, :] @ self.encoder.w_x.value,
                h,
                c,
                enc_w_h,
                enc_bias,
            )
            if t >= all_active:
                active = (t < lengths)[:, None]
                h_next = np.where(active, h_next, h)
                c_next = np.where(active, c_next, c)
            h, c = h_next, c_next
            context_list.append(h)
        return np.stack(context_list, axis=1), h, c, dec_proj

    # ------------------------------------------------------------------
    def backward(
        self,
        rollout: PolicyRollout,
        coeff: np.ndarray,
        entropy_coeff: Optional[np.ndarray] = None,
    ) -> None:
        """Accumulate grads of the REINFORCE surrogate loss.

        The loss is ``sum_b [coeff_b * (-log p(pi_b))
        - entropy_coeff_b * H_b]`` where ``H_b`` is the rollout's mean
        per-step pointer entropy (exactly ``rollout.entropy[b]``), so a
        positive ``entropy_coeff`` *rewards* entropy — the standard
        exploration bonus.  The entropy gradient is exact (not a score
        -function estimate): per step ``dH/dz_j = -p_j (log p_j + H)``
        for the masked softmax ``p``.

        ``coeff`` is ``[B]``: advantage values for REINFORCE, or ``1/B``
        for supervised imitation.  ``entropy_coeff`` is ``[B]`` or
        ``None`` (no bonus).  Gradients accumulate into the module's
        parameters (call :meth:`zero_grad` between batches).
        """
        if rollout.lengths is not None:
            raise TrainingError(
                "cannot backprop through a variable-length (padded) rollout; "
                "train on uniform-size batches instead"
            )
        if not rollout.steps:
            raise TrainingError(
                "cannot backprop through a rollout decoded with "
                "keep_caches=False"
            )
        coeff = np.asarray(coeff, dtype=float)
        batch, num_nodes, _ = rollout.features.shape
        if coeff.shape != (batch,):
            raise TrainingError(f"coeff must be [batch], got {coeff.shape}")
        if entropy_coeff is not None:
            entropy_coeff = np.asarray(entropy_coeff, dtype=float)
            if entropy_coeff.shape != (batch,):
                raise TrainingError(
                    f"entropy_coeff must be [batch], got {entropy_coeff.shape}"
                )
        rows = np.arange(batch)
        demb = np.zeros_like(rollout.emb)       # [B, T, H]
        dcontexts = np.zeros_like(rollout.contexts)
        ddh = np.zeros((batch, self.hidden_size))
        ddc = np.zeros((batch, self.hidden_size))
        for step in reversed(rollout.steps):
            # d(-log p(a)) / dlogits = probs - onehot(a); masked entries
            # have probs == 0 and are never the action, and the mask
            # blocks gradient flow to the raw logits there anyway.
            dlogits = _probs_minus_onehot(step, coeff)
            if entropy_coeff is not None:
                dlogits += _entropy_grad(step, entropy_coeff, num_nodes)
            dctx_ptr, dglimpse = self.pointer.backward(dlogits, step.pointer_cache)
            dctx_glimpse, ddh_glimpse = self.glimpse.backward(
                dglimpse, step.glimpse_cache
            )
            dcontexts += dctx_ptr + dctx_glimpse
            dd, ddh, ddc = self.decoder.backward(
                ddh + ddh_glimpse, ddc, step.lstm_cache
            )
            if step.prev_actions is None:
                self.d0.grad += dd.sum(axis=0)
            else:
                demb[rows, step.prev_actions, :] += dd
        # Encoder BPTT; decoder initial state = encoder final state.
        dh_carry = ddh
        dc_carry = ddc
        for t in range(num_nodes - 1, -1, -1):
            dh_t = dh_carry + dcontexts[:, t, :]
            dx, dh_carry, dc_carry = self.encoder.backward(
                dh_t, dc_carry, rollout.enc_caches[t]
            )
            demb[:, t, :] += dx
        # Embedding projection.
        self.w_emb.grad += np.einsum("btf,bth->fh", rollout.features, demb)
        self.b_emb.grad += demb.sum(axis=(0, 1))

    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """Constructor arguments, persisted beside checkpoints."""
        return {
            "feature_dim": self.feature_dim,
            "hidden_size": self.hidden_size,
            "logit_clip": self.logit_clip,
        }


def _stuck_message(row: int, step: int) -> str:
    return (
        f"batch row {row} has no selectable node at decode step {step} "
        f"although real nodes remain: its precedence is cyclic (or names "
        f"a padded position as a parent)"
    )


def _ready_sets(
    precedence: Optional[np.ndarray], sizes: List[int], num_nodes: int
):
    """Initial bookkeeping of :meth:`PointerNetworkPolicy.greedy_decode`.

    Returns ``(mask, ready, children, unmet)``: the ``[B, T]`` bool mask
    of selectable columns, and per row the list of ready nodes, each
    real node's children (the nodes naming it as a parent) and each real
    node's count of parents not yet picked.  Parents at padded positions
    are counted but never picked, so like in :meth:`forward` such a node
    never becomes ready.  ``precedence=None`` makes every real node ready.
    """
    mask = np.zeros((len(sizes), num_nodes), dtype=bool)
    ready: List[List[int]] = []
    children: List[List[List[int]]] = []
    unmet: List[List[int]] = []
    for b, size in enumerate(sizes):
        if precedence is None:
            counts = [0] * size
            kids: List[List[int]] = [[] for _ in range(size)]
        else:
            # flatnonzero + divmod: a 2-D ``np.nonzero`` is ~10x slower.
            child, parent = np.divmod(
                np.flatnonzero(precedence[b, :size]), num_nodes
            )
            counts = np.bincount(child, minlength=size).tolist()
            by_parent = np.argsort(parent, kind="stable")
            bounds = np.searchsorted(
                parent[by_parent], np.arange(size + 1)
            ).tolist()
            flat = child[by_parent].tolist()
            kids = [flat[bounds[j] : bounds[j + 1]] for j in range(size)]
        row_ready = [node for node in range(size) if not counts[node]]
        mask[b, row_ready] = True
        ready.append(row_ready)
        children.append(kids)
        unmet.append(counts)
    return mask, ready, children, unmet


def _probs_minus_onehot(step: _StepCache, coeff: np.ndarray) -> np.ndarray:
    """Gradient of ``-log p(action)`` w.r.t. the masked logits."""
    grad = step.probs.copy()
    rows = np.arange(grad.shape[0])
    grad[rows, step.actions] -= 1.0
    grad *= coeff[:, None]
    grad[~step.mask] = 0.0
    return grad


def _entropy_grad(
    step: _StepCache, entropy_coeff: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Gradient of ``-entropy_coeff * H_step / T`` w.r.t. masked logits.

    For ``p = softmax(z)`` and ``H = -sum_j p_j log p_j`` the exact
    per-entry derivative is ``dH/dz_j = -p_j (log p_j + H)``; the
    ``1/num_nodes`` factor matches the per-step averaging used by
    ``PolicyRollout.entropy``.
    """
    probs = step.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        log_probs = np.where(probs > 0, np.log(probs), 0.0)
    step_entropy = -(probs * log_probs).sum(axis=1, keepdims=True)
    grad = probs * (log_probs + step_entropy)
    grad *= (entropy_coeff / num_nodes)[:, None]
    grad[~step.mask] = 0.0
    return grad
