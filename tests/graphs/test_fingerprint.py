"""Tests for the content-addressed graph fingerprints."""

import pytest

from repro.graphs.dag import ComputationalGraph
from repro.graphs.fingerprint import (
    FINGERPRINT_VERSION,
    graph_fingerprint,
    structural_fingerprint,
)
from repro.graphs.sampler import SyntheticDAGSampler, sample_synthetic_dag
from repro.models.zoo import build_model
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
