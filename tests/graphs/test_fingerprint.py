"""Tests for the content-addressed graph fingerprints."""

import hashlib
import struct

import numpy as np
import pytest

from repro.errors import GraphError
import repro.graphs.fingerprint as fingerprint_module
from repro.graphs.dag import ComputationalGraph, OpNode
from repro.graphs.fingerprint import (
    FINGERPRINT_VERSION,
    _node_struct,
    graph_fingerprint,
    structural_fingerprint,
)
from repro.graphs.sampler import SyntheticDAGSampler, sample_synthetic_dag
from repro.models.zoo import FIG4_MODELS, build_model
from repro.tpu.quantize import quantize_graph


def _diamond(names=("a", "b", "c", "d"), flip_parents=False):
    a, b, c, d = names
    g = ComputationalGraph(name="diamond")
    g.add_op(a, op_type="input", output_bytes=100)
    g.add_op(b, op_type="conv2d", param_bytes=400, output_bytes=200,
             macs=1000, inputs=[a])
    g.add_op(c, op_type="conv2d", param_bytes=600, output_bytes=300,
             macs=2000, inputs=[a])
    g.add_op(d, op_type="add", output_bytes=200,
             inputs=[c, b] if flip_parents else [b, c])
    return g


class TestGraphFingerprint:
    def test_identical_content_identical_fingerprint(self):
        assert graph_fingerprint(_diamond()) == graph_fingerprint(_diamond())

    def test_is_hex_sha256(self):
        digest = graph_fingerprint(_diamond())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_graph_display_name_ignored(self):
        g1, g2 = _diamond(), _diamond()
        g2.name = "renamed"
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_node_rename_changes_fingerprint(self):
        # Node names feed the embedding's hashed node-ID column, so a
        # renamed graph may schedule differently and must not share a key.
        assert graph_fingerprint(_diamond()) != graph_fingerprint(
            _diamond(names=("a", "b", "c", "z"))
        )

    def test_resource_attributes_matter(self):
        g = _diamond()
        g.node("b").param_bytes = 401
        assert graph_fingerprint(g) != graph_fingerprint(_diamond())

    def test_parent_order_matters(self):
        # Parent insertion order decides relative-coordinate slots in the
        # embedding; flipping it must change the fingerprint.
        assert graph_fingerprint(_diamond()) != graph_fingerprint(
            _diamond(flip_parents=True)
        )

    def test_topology_matters(self):
        g = _diamond()
        g.add_edge("b", "c")
        assert graph_fingerprint(g) != graph_fingerprint(_diamond())

    def test_attrs_matter_unless_excluded(self):
        g = _diamond()
        g.node("b").attrs["quantized"] = True
        assert graph_fingerprint(g) != graph_fingerprint(_diamond())
        assert graph_fingerprint(g, include_attrs=False) == graph_fingerprint(
            _diamond(), include_attrs=False
        )

    def test_attr_dict_order_irrelevant(self):
        g1, g2 = _diamond(), _diamond()
        g1.node("b").attrs.update({"x": 1, "y": (2, 3)})
        g2.node("b").attrs.update({"y": (2, 3)})
        g2.node("b").attrs.update({"x": 1})
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_attr_value_types_distinct(self):
        g1, g2 = _diamond(), _diamond()
        g1.node("b").attrs["flag"] = 1
        g2.node("b").attrs["flag"] = True
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_sampler_determinism_round_trip(self):
        g1 = sample_synthetic_dag(num_nodes=20, degree=3, seed=9)
        g2 = sample_synthetic_dag(num_nodes=20, degree=3, seed=9)
        g3 = sample_synthetic_dag(num_nodes=20, degree=3, seed=10)
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        assert graph_fingerprint(g1) != graph_fingerprint(g3)


class TestGoldenDigests:
    """Pinned digests: persisted store keys are graph fingerprints, so a
    rewrite of the serialization must keep every value below (or bump
    ``FINGERPRINT_VERSION`` and update them deliberately)."""

    def test_version(self):
        assert FINGERPRINT_VERSION == "repro-graph-fp-v1"

    def test_diamond(self):
        assert graph_fingerprint(_diamond()) == (
            "d4af6675d0e8279f95fdb682bebf4b8db95ff7d77ed8ff9481d6f521e00dd5b0"
        )

    @pytest.mark.parametrize(
        "num_nodes, degree, seed, digests",
        [
            (10, 3, 1234, (
                "dc8c9de8dc0ca70a4289d08bbca0b4d73f82c0dcef489a1ad71e13e7e6c75457",
                "6a586984acd685cf48157b1571a8503af9d513d4980637c01b7bca1d0c1fa46a",
            )),
            (30, 2, 1, (
                "38cb68c44e9f6005d100ddda9d1d8384aae16e6a044a8c384a69e33baeb3ef82",
                "cecfcd104c2fb262ef90fa1e90ccec9165c5229a53a429f52a297698bfd0b04d",
            )),
            (60, 4, 7, (
                "c30f52ea2834ea4af9e6ec4b5251688dafe950c31748b9cf659b1ea98329901a",
                "b81cacb77bd7efc38dc3f466e5c049cfbbcd7ec5970a471dcca06ae825f00179",
            )),
        ],
    )
    def test_seeded_sampler_graphs(self, num_nodes, degree, seed, digests):
        sampler = SyntheticDAGSampler(num_nodes=num_nodes, degree=degree, seed=seed)
        assert tuple(graph_fingerprint(sampler.sample()) for _ in digests) == digests

    def test_zoo_model(self):
        graph = build_model("Xception")
        assert graph_fingerprint(graph) == (
            "52934829cf4dfecf98b7b6c6d005774aa4c0e9d348aaecea3441970b05363b5c"
        )
        assert graph_fingerprint(graph, include_attrs=False) == (
            "5f387de28d4d608b1cd6cd6bfc7cf540a2b917197c3925f31366ccc0d86bdda8"
        )
        # Quantization adds attrs, which the default digest covers.
        assert graph_fingerprint(quantize_graph(graph)) == (
            "14875c06d3c8428f0e1f89986cbac015d2d89f12b397e55fe07acf5184ec5cce"
        )


# ----------------------------------------------------------------------
# The ``repro-graph-fp-v1`` serializer as first written: one
# ``hasher.update`` per field.  Kept verbatim as the oracle the packed
# serializer must match byte for byte.
# ----------------------------------------------------------------------
def _v1_hash_str(hasher, text):
    data = text.encode("utf-8")
    hasher.update(struct.pack("<Q", len(data)))
    hasher.update(data)


def _v1_hash_int(hasher, value):
    value = int(value)
    if -(2**63) <= value < 2**63:
        hasher.update(b"i")
        hasher.update(struct.pack("<q", value))
    else:
        hasher.update(b"I")
        _v1_hash_str(hasher, str(value))


def _v1_canonical_value(value):
    if isinstance(value, dict):
        items = sorted(
            ((repr(k), _v1_canonical_value(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        return "dict{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_v1_canonical_value(v) for v in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_v1_canonical_value(v) for v in value))
        return f"{type(value).__name__}{{{inner}}}"
    return f"{type(value).__name__}:{value!r}"


def _v1_fingerprint(graph, include_attrs=True):
    hasher = hashlib.sha256()
    _v1_hash_str(hasher, "repro-graph-fp-v1")
    _v1_hash_int(hasher, graph.num_nodes)
    index = graph.build_index()
    for name in graph.node_names:
        node = graph.node(name)
        _v1_hash_str(hasher, node.name)
        _v1_hash_str(hasher, node.op_type)
        _v1_hash_int(hasher, node.param_bytes)
        _v1_hash_int(hasher, node.output_bytes)
        _v1_hash_int(hasher, node.macs)
        parents = graph.parents(name)
        _v1_hash_int(hasher, len(parents))
        for parent in parents:
            _v1_hash_int(hasher, index[parent])
        if include_attrs:
            items = sorted(
                ((repr(k), _v1_canonical_value(v)) for k, v in node.attrs.items()),
                key=lambda kv: kv[0],
            )
            _v1_hash_int(hasher, len(items))
            for key, value in items:
                _v1_hash_str(hasher, key)
                _v1_hash_str(hasher, value)
        else:
            _v1_hash_int(hasher, -1)
    return hasher.hexdigest()


def _assert_matches_v1(graph):
    for include_attrs in (True, False):
        assert graph_fingerprint(graph, include_attrs=include_attrs) == (
            _v1_fingerprint(graph, include_attrs=include_attrs)
        )


#: Every value kind the worker wire codec carries in node attrs.
WIRE_ATTR_VALUES = {
    "none": None,
    "bool": True,
    "int": -7,
    "big_int": 2**70,
    "float": 0.1,
    "neg_zero": -0.0,
    "str": "sänger",
    "list": [1, "a", None],
    "tuple": (3, 3),
    "set": {3, 1, 2},
    "frozenset": frozenset({"x", "y"}),
    "dict": {"b": 1, "a": (2.5, [False])},
    "bytes": b"\x00\xff",
    "nested": {"k": [{"s": {1}}, (frozenset(), b"")]},
}


class TestMatchesV1Serializer:
    """Differential test: the packed serializer emits the v1 byte stream."""

    @pytest.mark.parametrize("num_nodes", [30, 60, 90])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_synthetic_shapes(self, num_nodes, degree):
        sampler = SyntheticDAGSampler(num_nodes=num_nodes, degree=degree, seed=5)
        for _ in range(4):
            graph = sampler.sample()
            _assert_matches_v1(graph)
            _assert_matches_v1(graph.copy())

    @pytest.mark.parametrize("model", FIG4_MODELS)
    def test_zoo_models_raw_and_quantized(self, model):
        graph = build_model(model)
        _assert_matches_v1(graph)
        _assert_matches_v1(quantize_graph(graph))

    def test_empty_and_single_node_graphs(self):
        _assert_matches_v1(ComputationalGraph())
        g = ComputationalGraph()
        g.add_op("only", op_type="input", output_bytes=8)
        _assert_matches_v1(g)

    def test_non_ascii_names(self):
        g = ComputationalGraph()
        g.add_op("вход", op_type="入力", output_bytes=64)
        g.add_op("conv\u00e9\U0001F600", op_type="conv2d", param_bytes=9,
                 output_bytes=32, macs=5, inputs=["вход"])
        g.add_op("e\u0301", op_type="add", output_bytes=32,
                 inputs=["conv\u00e9\U0001F600", "вход"])
        assert any(len(n.encode("utf-8")) != len(n) for n in g.node_names)
        _assert_matches_v1(g)

    @pytest.mark.parametrize(
        "value", [2**63 - 1, 2**63, 2**64 + 5, 10**40],
    )
    def test_ints_outside_int64(self, value):
        g = _diamond()
        g.node("b").macs = value
        _assert_matches_v1(g)
        # Mutable after construction, so the negative side is reachable too.
        g.node("c").param_bytes = -(2**63) - 1
        _assert_matches_v1(g)
        g.node("c").param_bytes = -(2**63)
        _assert_matches_v1(g)

    def test_numpy_and_bool_fields(self):
        g = _diamond()
        g.node("a").output_bytes = np.int64(100)
        g.node("b").param_bytes = np.int32(400)
        g.node("b").macs = np.uint64(2**63 + 1)
        g.node("c").macs = True
        g.node("d").param_bytes = False
        _assert_matches_v1(g)
        # Coercion means equal values give equal keys, whatever the type.
        g.node("b").macs = np.uint64(1000)
        g.node("c").macs = 2000
        g.node("d").param_bytes = 0
        assert graph_fingerprint(g) == graph_fingerprint(_diamond())

    @pytest.mark.parametrize("key", sorted(WIRE_ATTR_VALUES))
    def test_each_wire_attr_type(self, key):
        g = _diamond()
        g.node("b").attrs[key] = WIRE_ATTR_VALUES[key]
        g.node("d").attrs[(key, 1)] = WIRE_ATTR_VALUES[key]
        _assert_matches_v1(g)

    def test_all_wire_attr_types_together(self):
        g = _diamond()
        g.node("c").attrs.update(WIRE_ATTR_VALUES)
        _assert_matches_v1(g)

    def test_many_parents(self):
        g = ComputationalGraph()
        for i in range(40):
            g.add_op(f"s{i}", output_bytes=i)
        g.add_op("sink", op_type="concat", output_bytes=1,
                 inputs=[f"s{i}" for i in reversed(range(40))])
        _assert_matches_v1(g)

    def test_struct_cache_is_bounded(self):
        assert _node_struct.cache_info().maxsize is not None

    def test_plain_graphs_take_the_packed_path(self, monkeypatch):
        # The field-by-field form also produces v1 bytes, so a broken
        # struct layout would hide behind it; plain ints must never reach it.
        def fail(*args):
            raise AssertionError("field-by-field path taken")

        monkeypatch.setattr(fingerprint_module, "_node_bytes", fail)
        graph = quantize_graph(build_model("Xception"))
        graph_fingerprint(graph)
        graph_fingerprint(graph, include_attrs=False)


class TestNonIntegralResources:
    """A float resource field must not alias the integer it truncates to."""

    @pytest.mark.parametrize("field", ["param_bytes", "output_bytes", "macs"])
    @pytest.mark.parametrize("value", [4096.9, 4096.0, np.float64(4096), "4096"])
    def test_constructor_rejects(self, field, value):
        with pytest.raises(GraphError, match=field):
            OpNode(name="n", **{field: value})

    @pytest.mark.parametrize("field", ["param_bytes", "output_bytes", "macs"])
    def test_fingerprint_rejects_mutated_field(self, field):
        g = _diamond()
        setattr(g.node("b"), field, 4096.9)
        with pytest.raises(GraphError, match=field):
            graph_fingerprint(g)
        with pytest.raises(GraphError, match=field):
            graph_fingerprint(g, include_attrs=False)

    def test_integral_types_accepted(self):
        node = OpNode(name="n", param_bytes=np.int64(4096), output_bytes=True,
                      macs=np.uint8(3))
        assert node.param_bytes == 4096


class TestNoMemoization:
    def test_mutation_after_fingerprint_is_seen(self):
        g = _diamond()
        before = graph_fingerprint(g)
        copy = g.copy()
        copy.node("b").param_bytes += 1
        assert graph_fingerprint(copy) != before
        assert graph_fingerprint(g) == before
        g.node("b").attrs["k"] = 1
        assert graph_fingerprint(g) != before


class TestStructuralFingerprint:
    def test_invariant_under_renaming(self):
        renamed = _diamond(names=("w", "x", "y", "z"))
        assert structural_fingerprint(_diamond()) == structural_fingerprint(
            renamed
        )
        # The exact fingerprint, by contrast, must distinguish them.
        assert graph_fingerprint(_diamond()) != graph_fingerprint(renamed)

    def test_invariant_under_insertion_reordering(self):
        g = ComputationalGraph()
        # Same diamond, inserted sinks-first with edges added afterwards.
        g.add_op("d", op_type="add", output_bytes=200)
        g.add_op("c", op_type="conv2d", param_bytes=600, output_bytes=300,
                 macs=2000)
        g.add_op("b", op_type="conv2d", param_bytes=400, output_bytes=200,
                 macs=1000)
        g.add_op("a", op_type="input", output_bytes=100)
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        g.add_edge("b", "d")
        g.add_edge("c", "d")
        assert structural_fingerprint(g) == structural_fingerprint(_diamond())

    def test_distinguishes_topologies(self):
        g = _diamond()
        g.add_edge("b", "c")
        assert structural_fingerprint(g) != structural_fingerprint(_diamond())

    def test_distinguishes_attributes(self):
        g = _diamond()
        g.node("b").param_bytes = 999
        assert structural_fingerprint(g) != structural_fingerprint(_diamond())

    def test_distinguishes_asymmetric_sizes(self):
        # Two chains with permuted per-node sizes: WL seeds differ.
        def chain(sizes):
            g = ComputationalGraph()
            prev = None
            for i, size in enumerate(sizes):
                g.add_op(f"n{i}", op_type="conv2d", param_bytes=size,
                         inputs=[prev] if prev else [])
                prev = f"n{i}"
            return g

        assert structural_fingerprint(chain([1, 2, 3])) != (
            structural_fingerprint(chain([3, 2, 1]))
        )
