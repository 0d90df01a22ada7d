"""Tests for the versioned wire format (:mod:`repro.service.wire`).

Round trips must preserve graph identity *exactly* (content fingerprint
and both adjacency orderings), decode requests must hand the worker the
sender's encoder queues byte for byte, and every way a payload can be
bad — truncation, foreign bytes, version skew, checksum corruption, the
wrong frame kind, unsupported attr types, inconsistent array lengths —
must raise a :class:`~repro.errors.WireFormatError` that names the
violation.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.embedding.features import EmbeddingConfig
from repro.embedding.queue import build_encoder_queue
from repro.errors import WireFormatError
from repro.graphs import fingerprint as fingerprint_module
from repro.graphs.dag import ComputationalGraph
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.sampler import sample_synthetic_dag
from repro.models.zoo import FIG4_MODELS, build_model
from repro.scheduling.heuristics import ListScheduler
from repro.service import wire
from repro.service.wire import StoreEntryRecord
from repro.tpu.quantize import quantize_graph


@pytest.fixture
def graphs():
    return [
        sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
        for seed in range(4)
    ]


def exotic_graph() -> ComputationalGraph:
    """A graph whose attrs span every type the fingerprint distinguishes."""
    g = ComputationalGraph(name="exotic")
    g.add_op(
        "a",
        op_type="input",
        output_bytes=10,
        shape=(1, 3, 224, 224),          # tuple
        tags={"vision", "input"},        # set
        frozen=frozenset({1, 2}),        # frozenset
        quant={"mode": "int8", "axes": [0, 1]},  # nested dict/list
        digest=b"\x00\xffRSPW",          # bytes
        ratio=0.25,
        count=3,
        flag=True,
        note=None,
    )
    g.add_op("b", op_type="conv2d", param_bytes=64, output_bytes=20,
             macs=100, inputs=["a"])
    g.add_op("c", op_type="add", output_bytes=20, inputs=["a", "b"])
    return g


class TestGraphRoundTrip:
    def test_fingerprint_and_structure_preserved(self, graphs):
        for graph in graphs:
            decoded = wire.decode_graph(wire.encode_graph(graph))
            assert graph_fingerprint(decoded) == graph_fingerprint(graph)
            assert decoded.node_names == graph.node_names
            for name in graph.node_names:
                assert decoded.parents(name) == graph.parents(name)
                assert decoded.children(name) == graph.children(name)

    def test_exotic_attr_types_survive_exactly(self):
        graph = exotic_graph()
        decoded = wire.decode_graph(wire.encode_graph(graph))
        assert graph_fingerprint(decoded) == graph_fingerprint(graph)
        attrs = decoded.node("a").attrs
        original = graph.node("a").attrs
        for key, value in original.items():
            assert attrs[key] == value
            assert type(attrs[key]) is type(value)

    def test_decoded_graph_schedules_identically(self, graphs):
        # The replayed adjacency orderings must reproduce heuristic
        # tie-breaking, not just the fingerprint.
        scheduler = ListScheduler()
        for graph in graphs:
            decoded = wire.decode_graph(wire.encode_graph(graph))
            assert (
                scheduler.schedule(decoded, 4).schedule.assignment
                == scheduler.schedule(graph, 4).schedule.assignment
            )

    def test_numpy_int_resources_encode_as_their_plain_twin(self):
        def one_node(cast):
            g = ComputationalGraph(name="np")
            g.add_op(
                "a",
                op_type="conv2d",
                param_bytes=cast(5),
                output_bytes=cast(7),
                macs=cast(11),
            )
            return g

        plain, numpy_ints = one_node(int), one_node(np.int64)
        decoded = wire.decode_graph(wire.encode_graph(numpy_ints))
        assert graph_fingerprint(decoded) == graph_fingerprint(plain)
        assert wire.encode_graph(numpy_ints) == wire.encode_graph(plain)
        assert type(decoded.node("a").param_bytes) is int

    def test_unsupported_attr_type_is_rejected_at_encode(self):
        g = ComputationalGraph(name="bad")
        g.add_op("a", op_type="input", output_bytes=1, payload=object())
        with pytest.raises(WireFormatError, match="unsupported value type"):
            wire.encode_graph(g)


class TestFraming:
    def test_truncated_header(self, graphs):
        data = wire.encode_graph(graphs[0])
        with pytest.raises(WireFormatError, match="truncated frame"):
            wire.decode_graph(data[:8])

    def test_truncated_payload(self, graphs):
        data = wire.encode_graph(graphs[0])
        with pytest.raises(WireFormatError, match="truncated payload"):
            wire.decode_graph(data[:-3])

    def test_bad_magic(self, graphs):
        data = wire.encode_graph(graphs[0])
        with pytest.raises(WireFormatError, match="bad magic"):
            wire.decode_graph(b"NOPE" + data[4:])

    def test_wrong_version(self, graphs):
        data = bytearray(wire.encode_graph(graphs[0]))
        data[4] = wire.WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            wire.decode_graph(bytes(data))

    def test_checksum_corruption(self, graphs):
        data = bytearray(wire.encode_graph(graphs[0]))
        data[-1] ^= 0xFF
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            wire.decode_graph(bytes(data))

    def test_wrong_kind(self, graphs):
        data = wire.encode_graph(graphs[0])
        with pytest.raises(WireFormatError, match="expected decode-request"):
            wire.decode_decode_request(data)

    def test_non_bytes_input(self):
        with pytest.raises(WireFormatError, match="must be bytes"):
            wire.decode_graph("not bytes")

    def test_header_layout_is_stable(self):
        # The frame layout is the cross-process ABI; catching accidental
        # struct changes here beats debugging version skew in workers.
        assert wire.MAGIC == b"RSPW"
        assert wire._HEADER.size == struct.calcsize("<4sBBQI")


def reseal(kind: int, body: bytes, version: int = wire.WIRE_VERSION) -> bytes:
    """A frame around ``body`` with a correct length and checksum."""
    return wire._HEADER.pack(
        wire.MAGIC, version, kind, len(body), zlib.crc32(body)
    ) + body


def split_request(data: bytes):
    """A decode request frame as ``(header dict, array region bytes)``."""
    body = data[wire.HEADER_SIZE :]
    (length,) = struct.unpack_from("<I", body)
    header = json.loads(body[4 : 4 + length])
    return header, body[4 + length :]


def join_request(header: dict, arrays: bytes) -> bytes:
    head = json.dumps(header, separators=(",", ":")).encode()
    return reseal(
        wire.KIND_DECODE_REQUEST, struct.pack("<I", len(head)) + head + arrays
    )


def assert_queues_equal(decoded, expected):
    assert len(decoded) == len(expected)
    for got, want in zip(decoded, expected):
        assert got.node_names == want.node_names
        assert got.features.dtype == np.float64
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        assert got.precedence.dtype == bool
        assert np.array_equal(got.precedence, want.precedence)


@pytest.fixture(scope="module")
def fig4_graphs():
    return [quantize_graph(build_model(model)) for model in FIG4_MODELS]


def serve_shaped_graphs():
    return [
        sample_synthetic_dag(num_nodes=n, degree=d, seed=100 * n + d)
        for n in (30, 60, 90)
        for d in (2, 3, 4)
    ]


class TestDecodeRequestResponse:
    def test_request_round_trip_carries_options_key(self, graphs):
        data = wire.encode_decode_request(graphs, options_key="abc123")
        request = wire.decode_decode_request(data)
        assert request.options_key == "abc123"
        assert request.trace is None
        assert request.embedding_config == EmbeddingConfig()
        assert_queues_equal(
            request.queues, [build_encoder_queue(g) for g in graphs]
        )

    def test_fig4_queues_round_trip_exactly(self, fig4_graphs):
        for graph in fig4_graphs:
            request = wire.decode_decode_request(
                wire.encode_decode_request([graph])
            )
            assert_queues_equal(request.queues, [build_encoder_queue(graph)])

    def test_serve_shaped_batch_round_trips_exactly(self):
        graphs = serve_shaped_graphs()
        request = wire.decode_decode_request(
            wire.encode_decode_request(graphs)
        )
        assert_queues_equal(
            request.queues, [build_encoder_queue(g) for g in graphs]
        )

    def test_non_default_embedding_config_round_trips(self, graphs):
        config = EmbeddingConfig(max_parents=3, include_memory=False)
        data = wire.encode_decode_request(
            graphs, embedding_config=config,
            trace={"trace_id": "t1", "span_id": "s1"},
        )
        request = wire.decode_decode_request(data)
        assert request.embedding_config == config
        assert request.trace == {"trace_id": "t1", "span_id": "s1"}
        assert_queues_equal(
            request.queues, [build_encoder_queue(g, config) for g in graphs]
        )

    def test_decode_builds_no_graph_and_no_fingerprint(
        self, graphs, monkeypatch
    ):
        data = wire.encode_decode_request(graphs)
        calls = []

        def forbidden(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called while decoding")

            return spy

        monkeypatch.setattr(
            ComputationalGraph, "__init__", forbidden("ComputationalGraph")
        )
        monkeypatch.setattr(
            fingerprint_module, "graph_fingerprint", forbidden("fingerprint")
        )
        monkeypatch.setattr(
            wire, "graph_fingerprint", forbidden("fingerprint")
        )
        request = wire.decode_decode_request(data)
        assert len(request.queues) == len(graphs)
        assert calls == []

    def test_flipped_array_byte_fails_the_checksum(self, graphs):
        data = bytearray(wire.encode_decode_request(graphs))
        data[-5] ^= 0x01
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            wire.decode_decode_request(bytes(data))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_resealed_wrong_array_length_is_rejected(self, graphs, delta):
        header, arrays = split_request(wire.encode_decode_request(graphs))
        arrays = arrays[:-1] if delta < 0 else arrays + b"\x00"
        with pytest.raises(WireFormatError, match="array region"):
            wire.decode_decode_request(join_request(header, arrays))

    def test_non_string_node_name_is_rejected(self, graphs):
        header, arrays = split_request(wire.encode_decode_request(graphs))
        header["node_names"][1][0] = 7
        with pytest.raises(WireFormatError, match="non-string node name"):
            wire.decode_decode_request(join_request(header, arrays))

    def test_empty_queue_is_rejected(self, graphs):
        header, arrays = split_request(wire.encode_decode_request(graphs))
        header["node_names"][0] = []
        with pytest.raises(WireFormatError, match="no node names"):
            wire.decode_decode_request(join_request(header, arrays))

    def test_feature_dim_mismatch_is_rejected(self, graphs):
        header, arrays = split_request(wire.encode_decode_request(graphs))
        header["embedding"]["max_parents"] = 5
        with pytest.raises(WireFormatError, match="embedding config produces 13"):
            wire.decode_decode_request(join_request(header, arrays))

    def test_malformed_embedding_config_is_rejected(self, graphs):
        header, arrays = split_request(wire.encode_decode_request(graphs))
        bad = dict(header, embedding=dict(header["embedding"], max_parents=6.0))
        with pytest.raises(WireFormatError, match="max_parents"):
            wire.decode_decode_request(join_request(bad, arrays))
        bad = dict(header, embedding=dict(header["embedding"], extra=True))
        with pytest.raises(WireFormatError, match="fields"):
            wire.decode_decode_request(join_request(bad, arrays))

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_tensor_request_versions_are_rejected(self, graphs, version):
        legacy = json.dumps({"options_key": None, "graphs": []}).encode()
        frame = reseal(wire.KIND_DECODE_REQUEST, legacy, version=version)
        with pytest.raises(WireFormatError, match=f"wire version {version}"):
            wire.decode_decode_request(frame)

    def test_empty_request_is_rejected(self):
        with pytest.raises(WireFormatError, match="at least one graph"):
            wire.encode_decode_request([])

    def test_response_round_trip(self):
        data = wire.encode_decode_response(
            [["a", "b"], ["c"]], [-1.25, -0.5]
        )
        response = wire.decode_decode_response(data)
        assert response.orders == [["a", "b"], ["c"]]
        assert response.log_probs == [-1.25, -0.5]

    def test_inconsistent_response_is_rejected(self):
        with pytest.raises(WireFormatError, match="inconsistent"):
            wire.encode_decode_response([["a"]], [-1.0, -2.0])


class TestOlderVersions:
    @pytest.mark.parametrize("version", [1, 2])
    def test_store_and_schedule_frames_still_decode(self, graphs, version):
        record = StoreEntryRecord(
            namespace="default", fingerprint="f" * 64, num_stages=2,
            options_key="k", assignment={"a": 0, "b": 1}, method="respect",
            objective=1.5, status="inference", solve_time=0.25,
        )
        entry = bytearray(wire.encode_store_entry(record))
        entry[4] = version
        assert wire.decode_store_entry(bytes(entry)) == record
        schedule = ListScheduler().schedule(graphs[0], 4).schedule
        frame = bytearray(wire.encode_schedule(schedule))
        frame[4] = version
        bound = wire.decode_schedule(bytes(frame)).bind(graphs[0])
        assert bound.assignment == schedule.assignment


class TestSchedule:
    def test_round_trip_binds_to_matching_graph(self, graphs):
        graph = graphs[0]
        result = ListScheduler().schedule(graph, 4)
        bound = wire.decode_schedule(
            wire.encode_schedule(result.schedule)
        ).bind(graph)
        assert bound.assignment == result.schedule.assignment
        assert bound.graph is graph

    def test_bind_refuses_mismatched_graph(self, graphs):
        result = ListScheduler().schedule(graphs[0], 4)
        decoded = wire.decode_schedule(wire.encode_schedule(result.schedule))
        with pytest.raises(WireFormatError, match="bound to"):
            decoded.bind(graphs[1])

    def test_out_of_range_stage_is_rejected(self, graphs):
        result = ListScheduler().schedule(graphs[0], 4)
        data = bytearray(wire.encode_schedule(result.schedule))
        # Corrupt the JSON payload, then re-seal length + crc so only
        # the semantic validation can catch it.
        import json
        import zlib

        payload = json.loads(bytes(data[wire._HEADER.size:]))
        payload["stages"][0] = payload["num_stages"] + 7
        body = json.dumps(payload, separators=(",", ":")).encode()
        frame = wire._HEADER.pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.KIND_SCHEDULE,
            len(body), zlib.crc32(body),
        ) + body
        with pytest.raises(WireFormatError, match="outside"):
            wire.decode_schedule(frame)


class TestOptions:
    def test_round_trip_preserves_types_and_order(self):
        options = {
            "method": "respect",
            "budget_slack": 1.5,
            "enforce_siblings": True,
            "stages": (2, 4),
            "extra": {"nested": [1, 2.0, None]},
        }
        decoded = wire.decode_options(wire.encode_options(options))
        assert decoded == options
        assert list(decoded) == list(options)
        assert type(decoded["stages"]) is tuple

    def test_non_dict_is_rejected(self):
        with pytest.raises(WireFormatError, match="must be a dict"):
            wire.encode_options(["not", "a", "dict"])
