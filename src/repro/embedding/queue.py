"""Encoder input queue ``q``: embedding rows + their node names."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.embedding.features import (
    EmbeddingConfig,
    check_embeddable,
    embed_ordered,
)
from repro.errors import EmbeddingError
from repro.graphs.dag import ComputationalGraph


@dataclass
class EncoderQueue:
    """The paper's embedded input queue ``q``.

    ``features[i]`` embeds ``node_names[i]``; the RL policy's output
    indices refer to positions in this queue.  ``precedence[i, j]`` is
    True iff position ``j`` is a parent of position ``i`` — the decoder
    uses it to restrict choices to schedulable nodes.
    """

    node_names: List[str]
    features: np.ndarray    # [|V|, feature_dim]
    precedence: np.ndarray  # [|V|, |V|] bool

    def __len__(self) -> int:
        return len(self.node_names)

    def names_for(self, indices) -> List[str]:
        """Translate queue positions back to node names."""
        return [self.node_names[int(i)] for i in indices]


def build_precedence_matrix(
    graph: ComputationalGraph, node_names: List[str]
) -> np.ndarray:
    """``P[i, j] = True`` iff ``node_names[j]`` is a parent of ``node_names[i]``."""
    return _precedence(node_names, [graph.parents(name) for name in node_names])


def _precedence(
    node_names: List[str], parent_lists: List[List[str]]
) -> np.ndarray:
    """:func:`build_precedence_matrix` from each node's parent list,
    set with one flat index assignment."""
    size = len(node_names)
    position = {name: i for i, name in enumerate(node_names)}
    flat = [
        i * size + position[p] for i, parents in enumerate(parent_lists) for p in parents
    ]
    matrix = np.zeros(size * size, dtype=bool)
    matrix[flat] = True
    return matrix.reshape(size, size)


def pad_queues(
    queues: Sequence[EncoderQueue],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad variable-size queues into one batch for vectorized decoding.

    Returns ``(features [B, N, F], precedence [B, N, N], lengths [B])``
    where ``N = max |V|``.  Padded feature rows are zero and padded
    precedence entries are False; row ``b``'s real content occupies its
    first ``lengths[b]`` positions.  Every queue must share one feature
    dimension (i.e. one :class:`EmbeddingConfig`).
    """
    if not queues:
        raise EmbeddingError("pad_queues needs at least one queue")
    feature_dims = {queue.features.shape[1] for queue in queues}
    if len(feature_dims) != 1:
        raise EmbeddingError(
            f"queues mix feature dimensions {sorted(feature_dims)}; "
            f"they must share one embedding config"
        )
    lengths = np.array([len(queue) for queue in queues], dtype=int)
    batch, max_nodes = len(queues), int(lengths.max())
    features = np.zeros((batch, max_nodes, feature_dims.pop()))
    precedence = np.zeros((batch, max_nodes, max_nodes), dtype=bool)
    for b, queue in enumerate(queues):
        features[b, : lengths[b], :] = queue.features
        precedence[b, : lengths[b], : lengths[b]] = queue.precedence
    return features, precedence, lengths


def build_encoder_queue(
    graph: ComputationalGraph,
    config: EmbeddingConfig = EmbeddingConfig(),
) -> EncoderQueue:
    """Embed ``graph`` and keep the row -> node-name mapping.

    The same queue as :func:`~repro.embedding.features.embed_graph` plus
    :func:`build_precedence_matrix` over ``graph.topological_order()``,
    with the order and every node's parent list computed once.
    """
    check_embeddable(graph, config)
    node_names = graph.topological_order()
    parent_lists = [graph.parents(name) for name in node_names]
    return EncoderQueue(
        node_names=node_names,
        features=embed_ordered(graph, node_names, parent_lists, config),
        precedence=_precedence(node_names, parent_lists),
    )
