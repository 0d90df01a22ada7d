"""Tests for the versioned wire format (:mod:`repro.service.wire`).

Decode requests must hand the worker the sender's encoder queues byte
for byte, store-entry provenance must keep every tagged value type
exactly, and every way a payload can be bad — truncation, foreign
bytes, version skew, checksum corruption, the wrong frame kind,
unsupported value types, inconsistent array lengths — must raise a
:class:`~repro.errors.WireFormatError` that names the violation.
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
from repro.graphs.sampler import sample_synthetic_dag
from repro.models.zoo import FIG4_MODELS, build_model
from repro.service import wire
from repro.service.wire import StoreEntryRecord, StoreTombstoneRecord
from repro.tpu.quantize import quantize_graph


@pytest.fixture
def graphs():
    return [
        sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
        for seed in range(4)
    ]


def store_record(**overrides) -> StoreEntryRecord:
    fields = dict(
        namespace="default", fingerprint="f" * 64, num_stages=2,
        options_key="k", assignment={"a": 0, "b": 1}, method="respect",
        objective=1.5, status="inference", solve_time=0.25,
    )
    fields.update(overrides)
    return StoreEntryRecord(**fields)


@pytest.fixture
def frames():
    """One frame of each kind that is still sent, with its decoder."""
    return [
        (wire.encode_store_entry(store_record()), wire.decode_store_entry),
        (
            wire.encode_decode_response([["a", "b"], ["c"]], [-1.25, -0.5]),
            wire.decode_decode_response,
        ),
    ]


class TestStoreEntryProvenance:
    def test_exotic_value_types_survive_exactly(self):
        provenance = {
            "shape": (1, 3, 224, 224),                 # tuple
            "tags": {"vision", "input"},               # set
            "frozen": frozenset({1, 2}),               # frozenset
            "quant": {"mode": "int8", "axes": [0, 1]},  # nested dict/list
            "digest": b"\x00\xffRSPW",                 # bytes
            "ratio": 0.25,
            "count": 3,
            "flag": True,
            "note": None,
        }
        record = store_record(provenance=provenance)
        decoded = wire.decode_store_entry(wire.encode_store_entry(record))
        assert decoded == record
        for key, value in provenance.items():
            assert decoded.provenance[key] == value
            assert type(decoded.provenance[key]) is type(value)
        assert type(decoded.provenance["quant"]["axes"]) is list

    def test_unsupported_value_type_is_rejected_at_encode(self):
        record = store_record(provenance={"payload": object()})
        with pytest.raises(WireFormatError, match="unsupported value type"):
            wire.encode_store_entry(record)


class TestFraming:
    def test_truncated_header(self, frames):
        for data, decode in frames:
            with pytest.raises(WireFormatError, match="truncated frame"):
                decode(data[:8])

    def test_truncated_payload(self, frames):
        for data, decode in frames:
            with pytest.raises(WireFormatError, match="truncated payload"):
                decode(data[:-3])

    def test_bad_magic(self, frames):
        for data, decode in frames:
            with pytest.raises(WireFormatError, match="bad magic"):
                decode(b"NOPE" + data[4:])

    def test_wrong_version(self, frames):
        for data, decode in frames:
            data = bytearray(data)
            data[4] = wire.WIRE_VERSION + 1
            with pytest.raises(
                WireFormatError, match="unsupported wire version"
            ):
                decode(bytes(data))

    def test_checksum_corruption(self, frames):
        for data, decode in frames:
            data = bytearray(data)
            data[-1] ^= 0xFF
            with pytest.raises(WireFormatError, match="checksum mismatch"):
                decode(bytes(data))

    def test_wrong_kind(self, frames):
        entry, response = frames[0][0], frames[1][0]
        with pytest.raises(WireFormatError, match="expected decode-request"):
            wire.decode_decode_request(entry)
        with pytest.raises(
            WireFormatError, match="decode-response payload, expected store-entry"
        ):
            wire.decode_store_entry(response)
        # The reserved kinds still name themselves in the error.
        for kind, name in (
            (wire.KIND_GRAPH, "graph"),
            (wire.KIND_SCHEDULE, "schedule"),
            (wire.KIND_OPTIONS, "options"),
        ):
            with pytest.raises(
                WireFormatError, match=f"a {name} payload, expected store-entry"
            ):
                wire.decode_store_entry(reseal(kind, b"{}"))

    def test_non_bytes_input(self, frames):
        for _, decode in frames:
            with pytest.raises(WireFormatError, match="must be bytes"):
                decode("not bytes")

    def test_header_layout_is_stable(self, frames):
        # The frame layout is the cross-process ABI; catching accidental
        # struct changes here beats debugging version skew in workers.
        assert wire.MAGIC == b"RSPW"
        assert wire._HEADER.size == struct.calcsize("<4sBBQI")
        for data, _ in frames:
            magic, version, kind, length, crc = wire._HEADER.unpack_from(data)
            assert (magic, version) == (wire.MAGIC, wire.WIRE_VERSION)
            assert wire.frame_info(data) == (kind, len(data))
            assert zlib.crc32(data[wire.HEADER_SIZE :]) == crc


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


class TestStoreEntryValidation:
    def test_out_of_range_stage_is_rejected(self):
        # Re-seal length + crc so only the semantic check can catch it.
        data = wire.encode_store_entry(store_record())
        payload = json.loads(data[wire.HEADER_SIZE :])
        payload["assignment"][0][1] = payload["num_stages"] + 7
        body = json.dumps(payload, separators=(",", ":")).encode()
        with pytest.raises(WireFormatError, match="outside"):
            wire.decode_store_entry(reseal(wire.KIND_STORE_ENTRY, body))


class TestOlderVersions:
    @pytest.mark.parametrize("version", [1, 2])
    def test_store_and_schedule_frames_still_decode(self, version):
        # Store entries are the persisted schedules; a store written by
        # an older build replays its entries and tombstones.
        record = store_record(provenance={"epoch": 3, "shape": (2, 2)})
        tombstone = StoreTombstoneRecord(namespace="default", options_key="k")
        for data, decode, expected in (
            (wire.encode_store_entry(record), wire.decode_store_entry, record),
            (
                wire.encode_store_tombstone(tombstone),
                wire.decode_store_tombstone,
                tombstone,
            ),
        ):
            frame = bytearray(data)
            frame[4] = version
            assert decode(bytes(frame)) == expected
