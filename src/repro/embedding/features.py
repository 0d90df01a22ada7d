"""Node-feature embedding of computational graphs (Sec. III-A).

Each node is embedded with the four components the paper describes:

1. **absolute coordinates** — the node's ASAP topological level,
2. **relative coordinates** — its parents' topological levels and
   parents' IDs (padded to ``max_parents`` slots; source nodes use level
   0 and ID −1, matching the paper's convention),
3. **node ID** — a deterministic hash of the operator name,
4. **memory** — the node's parameter footprint.

All columns are scaled to ``[-1, 1]``-ish ranges so the same trained
policy generalizes from 30-node synthetic graphs to 782-node DNNs:
levels are normalized by graph depth, IDs by the hash modulus, and
memory by the largest node footprint in the graph.  (The paper feeds raw
coordinates; normalization is the standard trick that makes LSTM inputs
scale-free, and the ablation bench quantifies each column's value.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import EmbeddingError
from repro.graphs.dag import ComputationalGraph
from repro.utils.rng import stable_hash

_ID_MODULUS = 2**31 - 1


@dataclass(frozen=True)
class EmbeddingConfig:
    """Knobs of the graph embedding.

    ``max_parents`` bounds the relative-coordinate slots; graphs whose
    in-degree exceeds it keep the ``max_parents`` *most recent* parents
    (highest topological level), which preserves the tightest dependency
    constraints.  Column groups can be disabled for ablations.
    """

    max_parents: int = 6
    include_levels: bool = True
    include_parent_levels: bool = True
    include_parent_ids: bool = True
    include_node_id: bool = True
    include_memory: bool = True

    @property
    def feature_dim(self) -> int:
        dim = 0
        if self.include_levels:
            dim += 1
        if self.include_parent_levels:
            dim += self.max_parents
        if self.include_parent_ids:
            dim += self.max_parents
        if self.include_node_id:
            dim += 1
        if self.include_memory:
            dim += 1
        return dim


def embedding_feature_names(config: EmbeddingConfig = EmbeddingConfig()) -> List[str]:
    """Column labels of the embedding matrix (documentation/debugging)."""
    names: List[str] = []
    if config.include_levels:
        names.append("topo_level")
    if config.include_parent_levels:
        names.extend(f"parent_level_{i}" for i in range(config.max_parents))
    if config.include_parent_ids:
        names.extend(f"parent_id_{i}" for i in range(config.max_parents))
    if config.include_node_id:
        names.append("node_id")
    if config.include_memory:
        names.append("memory")
    return names


def _node_id(name: str) -> float:
    """Operator-name hash scaled to [0, 1)."""
    return stable_hash(name, _ID_MODULUS) / _ID_MODULUS


def embed_graph(
    graph: ComputationalGraph,
    config: EmbeddingConfig = EmbeddingConfig(),
) -> np.ndarray:
    """Embed ``graph`` into a ``[|V|, feature_dim]`` float matrix.

    Rows follow the graph's topological order (the encoder input queue
    order); use :func:`repro.embedding.queue.build_encoder_queue` to keep
    the row -> node-name correspondence.
    """
    check_embeddable(graph, config)
    order = graph.topological_order()
    return embed_ordered(graph, order, [graph.parents(n) for n in order], config)


def check_embeddable(graph: ComputationalGraph, config: EmbeddingConfig) -> None:
    """Raise :class:`EmbeddingError` when ``graph`` cannot be embedded."""
    if graph.num_nodes == 0:
        raise EmbeddingError("cannot embed an empty graph")
    if config.max_parents < 1:
        raise EmbeddingError("max_parents must be at least 1")
    if config.feature_dim == 0:
        raise EmbeddingError("embedding config disables every column")


def embed_ordered(
    graph: ComputationalGraph,
    order: List[str],
    parent_lists: List[List[str]],
    config: EmbeddingConfig,
) -> np.ndarray:
    """:func:`embed_graph` given the topological ``order`` and each
    ordered node's parents (``parent_lists[i]`` of ``order[i]``).

    One pass over ``order`` derives the ASAP levels, each node's ID is
    hashed once, and the rows are built as Python lists turned into one
    array, so callers that also need the order (the encoder queue) walk
    the graph only once.  Callers run :func:`check_embeddable` first.
    """
    levels: Dict[str, int] = {}
    for name, parents in zip(order, parent_lists):
        levels[name] = max([levels[p] for p in parents]) + 1 if parents else 0
    depth = max(levels.values())
    level_scale = 1.0 / max(1, depth)
    max_mem = max((n.param_bytes for n in graph.nodes), default=0)
    mem_scale = 1.0 / max(1, max_mem)
    want_ids = config.include_parent_ids or config.include_node_id
    ids = {name: _node_id(name) for name in order} if want_ids else {}

    max_parents = config.max_parents
    rows = []
    for name, parents in zip(order, parent_lists):
        row: List[float] = []
        if config.include_levels:
            row.append(levels[name] * level_scale)
        if len(parents) > max_parents:
            # Keep the tightest constraints: the latest-level parents.
            parents = sorted(parents, key=levels.__getitem__)[-max_parents:]
        padding = max_parents - len(parents)
        if config.include_parent_levels:
            row.extend([levels[p] * level_scale for p in parents])
            row.extend([0.0] * padding)  # paper: sources use 0
        if config.include_parent_ids:
            row.extend([ids[p] for p in parents])
            row.extend([-1.0] * padding)  # paper: missing ID = -1
        if config.include_node_id:
            row.append(ids[name])
        if config.include_memory:
            row.append(graph.node(name).param_bytes * mem_scale)
        rows.append(row)
    return np.array(rows, dtype=float)
