"""``build_encoder_queue`` against verbatim copies of its previous version.

The queue builder walks the graph once: one topological order, ASAP
levels derived from it, each node's ID hashed once, the features built
from Python rows in one ``np.array`` call and the precedence set with
one index assignment.  None of that may move a byte, so this file keeps
the previous ``embed_graph``, ``asap_levels`` and
``build_precedence_matrix`` verbatim and compares feature bytes, dtype,
precedence and node names of ``build_encoder_queue``, ``embed_graph``
and ``build_precedence_matrix``.
"""

import random
from typing import Dict, List

import numpy as np
import pytest

from repro.embedding.features import (
    EmbeddingConfig,
    _ID_MODULUS,
    embed_graph,
)
from repro.embedding.queue import build_encoder_queue, build_precedence_matrix
from repro.errors import EmbeddingError
from repro.graphs.dag import ComputationalGraph
from repro.graphs.sampler import sample_synthetic_dag
from repro.models.zoo import FIG4_MODELS, build_model
from repro.tpu.quantize import quantize_graph
from repro.utils.rng import stable_hash

# ---------------------------------------------------------------------------
# The previous embedding, kept verbatim as the oracle.


def _previous_asap_levels(graph: ComputationalGraph) -> Dict[str, int]:
    levels: Dict[str, int] = {}
    for name in graph.topological_order():
        parents = graph.parents(name)
        levels[name] = 0 if not parents else max(levels[p] for p in parents) + 1
    return levels


def _previous_node_id(name: str) -> float:
    return stable_hash(name, _ID_MODULUS) / _ID_MODULUS


def _previous_embed_graph(graph, config=EmbeddingConfig()):
    if graph.num_nodes == 0:
        raise EmbeddingError("cannot embed an empty graph")
    if config.max_parents < 1:
        raise EmbeddingError("max_parents must be at least 1")
    if config.feature_dim == 0:
        raise EmbeddingError("embedding config disables every column")

    levels = _previous_asap_levels(graph)
    depth = max(levels.values())
    level_scale = 1.0 / max(1, depth)
    max_mem = max((n.param_bytes for n in graph.nodes), default=0)
    mem_scale = 1.0 / max(1, max_mem)

    order = graph.topological_order()
    rows = np.zeros((len(order), config.feature_dim))
    for row_idx, name in enumerate(order):
        col = 0
        if config.include_levels:
            rows[row_idx, col] = levels[name] * level_scale
            col += 1
        parents = graph.parents(name)
        if len(parents) > config.max_parents:
            # Keep the tightest constraints: the latest-level parents.
            parents = sorted(parents, key=lambda p: levels[p])[-config.max_parents:]
        if config.include_parent_levels:
            for slot in range(config.max_parents):
                if slot < len(parents):
                    rows[row_idx, col + slot] = levels[parents[slot]] * level_scale
                else:
                    rows[row_idx, col + slot] = 0.0  # paper: sources use 0
            col += config.max_parents
        if config.include_parent_ids:
            for slot in range(config.max_parents):
                if slot < len(parents):
                    rows[row_idx, col + slot] = _previous_node_id(parents[slot])
                else:
                    rows[row_idx, col + slot] = -1.0  # paper: missing ID = -1
            col += config.max_parents
        if config.include_node_id:
            rows[row_idx, col] = _previous_node_id(name)
            col += 1
        if config.include_memory:
            rows[row_idx, col] = graph.node(name).param_bytes * mem_scale
            col += 1
    return rows


def _previous_build_precedence_matrix(graph, node_names: List[str]) -> np.ndarray:
    position = {name: i for i, name in enumerate(node_names)}
    matrix = np.zeros((len(node_names), len(node_names)), dtype=bool)
    for name in node_names:
        i = position[name]
        for parent in graph.parents(name):
            matrix[i, position[parent]] = True
    return matrix


# ---------------------------------------------------------------------------

CONFIGS = [
    EmbeddingConfig(),
    EmbeddingConfig(max_parents=2),
    EmbeddingConfig(max_parents=1, include_memory=False),
    EmbeddingConfig(include_levels=False, include_parent_ids=False),
    EmbeddingConfig(
        include_parent_levels=False, include_node_id=False, include_memory=False
    ),
    EmbeddingConfig(
        include_levels=False,
        include_parent_levels=False,
        include_parent_ids=False,
        include_node_id=False,
    ),
]


def assert_same_queue(graph, config):
    queue = build_encoder_queue(graph, config)
    features = _previous_embed_graph(graph, config)
    node_names = graph.topological_order()
    assert queue.node_names == node_names
    assert queue.features.dtype == features.dtype
    assert queue.features.shape == features.shape
    assert queue.features.tobytes() == features.tobytes()
    assert embed_graph(graph, config).tobytes() == features.tobytes()
    precedence = _previous_build_precedence_matrix(graph, node_names)
    assert queue.precedence.dtype == precedence.dtype
    assert queue.precedence.tobytes() == precedence.tobytes()
    rebuilt = build_precedence_matrix(graph, node_names)
    assert rebuilt.dtype == precedence.dtype
    assert rebuilt.tobytes() == precedence.tobytes()


@pytest.fixture(scope="module")
def zoo():
    return {model: quantize_graph(build_model(model)) for model in FIG4_MODELS}


def serve_shaped(count, seed):
    """Graphs shaped like served requests: |V| 30/60/90, degree 2-4."""
    rng = random.Random(seed)
    return [
        sample_synthetic_dag(
            num_nodes=rng.choice((30, 60, 90)),
            degree=rng.choice((2, 3, 4)),
            seed=rng.getrandbits(32),
        )
        for _ in range(count)
    ]


def with_param_bytes(graph, convert):
    """Copy of ``graph`` whose ``param_bytes`` pass through ``convert``."""
    out = graph.copy()
    for node in out.nodes:
        node.param_bytes = convert(node.param_bytes)
    return out


class TestMatchesPreviousQueue:
    @pytest.mark.parametrize("model", FIG4_MODELS)
    @pytest.mark.parametrize("config", CONFIGS[:3])
    def test_fig4_models(self, zoo, model, config):
        assert_same_queue(zoo[model], config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_serve_shaped_graphs(self, config):
        for graph in serve_shaped(120, seed=11):
            assert_same_queue(graph, config)

    @pytest.mark.parametrize(
        "convert",
        [np.int64, np.uint32, lambda size: bool(size % 2), lambda size: np.bool_(size)],
        ids=["int64", "uint32", "bool", "numpy-bool"],
    )
    def test_numpy_and_bool_param_bytes(self, zoo, convert):
        for graph in serve_shaped(10, seed=4) + [zoo["ResNet50"]]:
            assert_same_queue(with_param_bytes(graph, convert), EmbeddingConfig())

    def test_single_node_and_all_zero_memory(self):
        graph = ComputationalGraph("one")
        graph.add_op("only")
        assert_same_queue(graph, EmbeddingConfig())
        graph = with_param_bytes(serve_shaped(1, seed=2)[0], lambda size: 0)
        assert_same_queue(graph, EmbeddingConfig())


class TestErrorsStillRaised:
    @pytest.mark.parametrize("build", [build_encoder_queue, embed_graph])
    def test_empty_graph(self, build):
        with pytest.raises(EmbeddingError, match="empty graph"):
            build(ComputationalGraph())

    @pytest.mark.parametrize("build", [build_encoder_queue, embed_graph])
    def test_max_parents_below_one(self, build, diamond_graph):
        with pytest.raises(EmbeddingError, match="max_parents"):
            build(diamond_graph, EmbeddingConfig(max_parents=0))

    @pytest.mark.parametrize("build", [build_encoder_queue, embed_graph])
    def test_no_columns(self, build, diamond_graph):
        config = EmbeddingConfig(
            include_levels=False,
            include_parent_levels=False,
            include_parent_ids=False,
            include_node_id=False,
            include_memory=False,
        )
        with pytest.raises(EmbeddingError, match="disables every column"):
            build(diamond_graph, config)
