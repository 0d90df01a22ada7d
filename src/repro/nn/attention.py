"""Glimpse and pointer attention heads (Algorithm 1 of the paper).

Both heads share the additive-attention form of Vinyals' pointer
networks:

``scores_t = v^T tanh(C @ W_ref + (q @ W_q + b))``

where ``C`` is the encoder context matrix (``[B, T, H]``) and ``q`` the
decoder query (``[B, H]``).  The *pointer* head exposes the (optionally
tanh-clipped) scores as selection logits; the *glimpse* head instead
softmaxes its scores and returns the attention-weighted context vector
used to refine the query before pointing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.init import glorot_uniform, zeros
from repro.nn.params import Module
from repro.utils.rng import SeedLike, resolve_rng

Cache = Dict[str, np.ndarray]


class AttentionHead(Module):
    """Additive attention producing per-position scores.

    Parameters
    ----------
    hidden_size:
        Dimension ``H`` of contexts and queries.
    logit_clip:
        When positive, scores become ``logit_clip * tanh(scores)`` — the
        exploration-friendly clipping of Bello et al. used by the pointer
        head.  Zero disables clipping (glimpse head).
    """

    def __init__(
        self, hidden_size: int, logit_clip: float = 0.0, rng: SeedLike = None
    ) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.hidden_size = hidden_size
        self.logit_clip = logit_clip
        self.w_ref = self.add_param("w_ref", glorot_uniform((hidden_size, hidden_size), rng))
        self.w_q = self.add_param("w_q", glorot_uniform((hidden_size, hidden_size), rng))
        self.bias = self.add_param("bias", zeros((hidden_size,)))
        self.v = self.add_param("v", glorot_uniform((hidden_size,), rng))

    def precompute_ref(self, contexts: np.ndarray) -> np.ndarray:
        """Project the context matrix once (``contexts @ W_ref``).

        The pointer decoder scores the *same* contexts at every step;
        hoisting this projection out of the decode loop removes an
        O(T^2 H^2) term from inference (the dominant cost on 500+-node
        graphs).
        """
        return contexts @ self.w_ref.value

    def forward(
        self,
        contexts: np.ndarray,
        query: np.ndarray,
        ref: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Cache]:
        """Score every context position: returns ``(scores [B,T], cache)``.

        ``ref`` may carry :meth:`precompute_ref`'s output to avoid
        re-projecting unchanged contexts.
        """
        if ref is None:
            ref = self.precompute_ref(contexts)  # [B, T, H]
        q = query @ self.w_q.value + self.bias.value  # [B, H]
        activated = F.tanh(ref + q[:, None, :])  # [B, T, H]
        raw = activated @ self.v.value  # [B, T]
        if self.logit_clip > 0:
            clipped = self.logit_clip * F.tanh(raw / self.logit_clip)
        else:
            clipped = raw
        cache: Cache = {
            "contexts": contexts,
            "query": query,
            "activated": activated,
            "raw": raw,
        }
        return clipped, cache

    def scores(
        self,
        query: np.ndarray,
        ref: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        scratch: np.ndarray,
    ) -> np.ndarray:
        """Cacheless inference scoring of the ``rows`` x ``cols`` block.

        Returns ``[len(rows), T]`` scores whose ``cols`` entries are
        bitwise-equal to the same entries of :meth:`forward`'s
        ``scores[rows]``; the other entries are meaningless.  No backward
        cache is built, which would keep ``O(B T H)`` intermediates alive
        per decode step.  ``ref`` is :meth:`precompute_ref`'s ``[B, T, H]``
        output and ``scratch`` a reusable ``[B, T, H]`` buffer in the
        activation dtype, holding finite values.

        Three things keep the scored entries exact: the query projection
        runs over the whole ``[B, H]`` query, because a GEMM's per-row
        floats can depend on its row count; ``tanh`` runs only at
        ``cols``, which is safe because it is elementwise; and the product
        with ``v`` runs over all ``T`` positions of ``scratch``, because a
        matrix-vector product over a subset of positions can round a
        position differently.  Positions outside ``cols`` keep stale
        values whose scores are never read.
        """
        q = (query @ self.w_q.value + self.bias.value)[rows]  # [K, H]
        activated = scratch[: rows.size]  # [K, T, H]
        activated[:, cols] = F.tanh(ref[rows[:, None], cols] + q[:, None, :])
        raw = activated @ self.v.value  # [K, T]
        if self.logit_clip > 0:
            return self.logit_clip * F.tanh(raw / self.logit_clip)
        return raw

    def backward(
        self, dscores: np.ndarray, cache: Cache
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop scores gradient; returns ``(dcontexts, dquery)``."""
        if self.logit_clip > 0:
            inner = F.tanh(cache["raw"] / self.logit_clip)
            dscores = dscores * F.dtanh_from_output(inner)
        activated = cache["activated"]
        # raw = activated @ v
        self.v.grad += np.einsum("bt,bth->h", dscores, activated)
        dactivated = dscores[:, :, None] * self.v.value[None, None, :]
        dpre = dactivated * F.dtanh_from_output(activated)  # [B, T, H]
        contexts = cache["contexts"]
        self.w_ref.grad += np.einsum("bti,btj->ij", contexts, dpre)
        dcontexts = dpre @ self.w_ref.value.T
        dq = dpre.sum(axis=1)  # [B, H]
        self.w_q.grad += cache["query"].T @ dq
        self.bias.grad += dq.sum(axis=0)
        dquery = dq @ self.w_q.value.T
        return dcontexts, dquery


class Glimpse(Module):
    """Attention-weighted context read refining the decoder query."""

    def __init__(self, hidden_size: int, rng: SeedLike = None) -> None:
        super().__init__()
        self.attention = self.add_module("attention", AttentionHead(hidden_size, rng=rng))

    def forward(
        self,
        contexts: np.ndarray,
        query: np.ndarray,
        mask: Optional[np.ndarray] = None,
        ref: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Cache]:
        """Return ``(glimpse_vector [B,H], cache)``.

        ``mask`` marks selectable positions (True = selectable); visited
        nodes are excluded from the glimpse just as they are from the
        pointer distribution.  ``ref`` forwards a precomputed context
        projection (see :meth:`AttentionHead.precompute_ref`).
        """
        scores, att_cache = self.attention.forward(contexts, query, ref=ref)
        if mask is not None:
            weights = F.masked_softmax(scores, mask)
        else:
            weights = F.softmax(scores)
        glimpse = np.einsum("bt,bth->bh", weights, contexts)
        cache: Cache = {
            "att_cache": att_cache,  # type: ignore[dict-item]
            "weights": weights,
            "contexts": contexts,
        }
        return glimpse, cache

    def backward(
        self, dglimpse: np.ndarray, cache: Cache
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop the glimpse vector; returns ``(dcontexts, dquery)``."""
        weights = cache["weights"]
        contexts = cache["contexts"]
        dweights = np.einsum("bh,bth->bt", dglimpse, contexts)
        dcontexts = weights[:, :, None] * dglimpse[:, None, :]
        # Softmax Jacobian: dscore = w * (dw - sum(w * dw)).
        inner = np.sum(weights * dweights, axis=1, keepdims=True)
        dscores = weights * (dweights - inner)
        dctx_att, dquery = self.attention.backward(dscores, cache["att_cache"])
        return dcontexts + dctx_att, dquery
