"""Compact, versioned wire format for cross-process scheduling payloads.

Decode worker processes (:mod:`repro.service.workers`) exchange decode
requests/responses with the serving parent, and the persistent schedule
store (:mod:`repro.service.store`) writes schedules and tombstones to
segment files.  Neither pickles live objects: pickle ties the payload to
the sender's class layout, hides cost, and cannot be validated.  Every
payload travels in one framed format instead:

``RSPW | version | kind | payload length | crc32 | payload``

The header is fixed-width.  :data:`WIRE_VERSION` bumps on layout
changes.  Every version in :data:`SUPPORTED_WIRE_VERSIONS` still opens,
so a store segment written by an older build keeps replaying.  Every
way a frame can be bad (truncation, foreign bytes, a version from a
different build, checksum corruption, the wrong kind, a malformed
payload) raises :class:`~repro.errors.WireFormatError` naming the
violation.

Payloads come in two shapes:

* **Tagged JSON** (decode responses, store entries and tombstones).
  Canonical UTF-8 JSON.  A store entry's provenance goes through a
  tagged value codec whose containers carry a type tag, so ``int`` vs
  ``float`` vs ``bool``, ``tuple`` vs ``list``, ``set``/``frozenset``,
  ``dict`` and ``bytes`` survive a round trip exactly.
* **Encoder tensors** (decode requests, since wire v3).  The greedy
  decode needs only each graph's encoder queue: features, precedence
  and node names.  The parent embeds each graph once and ships a small
  JSON header (options key, trace context, embedding config, node names)
  followed by raw little-endian float64 features and the bit-packed
  ``[n, n]`` precedence of every queue.  float64 is what
  :func:`~repro.embedding.queue.pad_queues` feeds the decoder, so the
  worker decodes exactly the arrays the in-process path would.  The
  worker rebuilds the queues with ``np.frombuffer``/``np.unpackbits``
  after checking every length; it builds no graph and computes no
  fingerprint.  Decode requests only ever exist in flight, so v1/v2
  request frames (which carried whole graphs) are rejected, not decoded.

Kinds 1, 4 and 5 (graph, schedule and options frames) are reserved: no
process sends them any more, and their codecs are gone, but their
numbers stay taken so no later kind can reuse them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field as dataclasses_field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedding.features import EmbeddingConfig
from repro.embedding.queue import EncoderQueue, build_encoder_queue
from repro.errors import WireFormatError
from repro.graphs.dag import ComputationalGraph

#: First bytes of every frame; rejects foreign byte streams immediately.
MAGIC = b"RSPW"

#: Version written on every new frame.  Bump on layout changes so
#: mixed-version processes fail loudly instead of mis-decoding each
#: other's payloads.  v2 added optional trace-context fields to decode
#: requests (``trace``) and responses (``spans``) for cross-process
#: span propagation.  v3 made decode requests carry encoder tensors
#: instead of graphs.
WIRE_VERSION = 3

#: Versions whose frames this build still opens.  Every kind but the
#: decode request decodes from all of them (v1 responses carry no
#: spans; decoding them yields ``spans=[]``).
SUPPORTED_WIRE_VERSIONS = (1, 2, 3)

#: First version whose decode requests carry encoder tensors.  Older
#: request frames carried whole graphs; requests only live in flight,
#: so those are rejected rather than decoded.
_TENSOR_REQUEST_VERSION = 3

#: Frame kinds.  A frame decoded as the wrong kind is an error, not a
#: guess — the kind byte is how a worker distinguishes a request from a
#: stray response.  Graph, schedule and options frames (1, 4, 5) are
#: reserved: nothing encodes or decodes them any more.
KIND_GRAPH = 1
KIND_DECODE_REQUEST = 2
KIND_DECODE_RESPONSE = 3
KIND_SCHEDULE = 4
KIND_OPTIONS = 5
KIND_STORE_ENTRY = 6
KIND_STORE_TOMBSTONE = 7

_KIND_NAMES = {
    KIND_GRAPH: "graph",
    KIND_DECODE_REQUEST: "decode-request",
    KIND_DECODE_RESPONSE: "decode-response",
    KIND_SCHEDULE: "schedule",
    KIND_OPTIONS: "options",
    KIND_STORE_ENTRY: "store-entry",
    KIND_STORE_TOMBSTONE: "store-tombstone",
}

#: magic, version, kind, payload length, crc32 of the payload.
_HEADER = struct.Struct("<4sBBQI")

#: Fixed byte length of every frame header (segment scanners need it to
#: know how much to read before the payload length is known).
HEADER_SIZE = _HEADER.size


def frame_info(header: bytes) -> Tuple[int, int]:
    """Parse a frame header prefix into ``(kind, total_frame_length)``.

    Validates the magic and version (so a scanner positioned on foreign
    or wrong-build bytes fails here instead of mis-reading a length) but
    *not* the payload checksum — the payload usually has not been read
    yet.  ``total_frame_length`` includes the header itself.
    """
    if isinstance(header, (bytearray, memoryview)):
        header = bytes(header)
    if len(header) < HEADER_SIZE:
        raise WireFormatError(
            f"truncated frame: {len(header)} bytes, header alone needs "
            f"{HEADER_SIZE}"
        )
    magic, version, kind, length, _ = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise WireFormatError(
            f"bad magic {magic!r}: not a RESPECT wire payload"
        )
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise WireFormatError(
            f"unsupported wire version {version}; this build speaks "
            f"versions {SUPPORTED_WIRE_VERSIONS}"
        )
    return kind, HEADER_SIZE + length


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _json_bytes(payload_obj: object) -> bytes:
    return json.dumps(payload_obj, separators=(",", ":")).encode("utf-8")


def _frame_bytes(kind: int, payload: bytes) -> bytes:
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, kind, len(payload), zlib.crc32(payload)
    ) + payload


def _frame(kind: int, payload_obj: object) -> bytes:
    return _frame_bytes(kind, _json_bytes(payload_obj))


def _unframe_bytes(data: object, expected_kind: int) -> Tuple[int, bytes]:
    """Check a frame's header and checksum; ``(version, payload)``."""
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    if not isinstance(data, bytes):
        raise WireFormatError(
            f"wire payload must be bytes, got {type(data).__name__}"
        )
    frame_info(data)  # length, magic and version
    _, version, kind, length, crc = _HEADER.unpack_from(data)
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise WireFormatError(
            f"truncated payload: header declares {length} bytes, frame "
            f"carries {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise WireFormatError("payload checksum mismatch: frame is corrupt")
    if kind != expected_kind:
        raise WireFormatError(
            f"frame holds a {_KIND_NAMES.get(kind, f'kind-{kind}')} payload, "
            f"expected {_KIND_NAMES[expected_kind]}"
        )
    return version, payload


def _json_object(payload: bytes, what: str = "payload") -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(
            f"{what} passed its checksum but is not valid JSON: {exc}"
        ) from exc
    if not isinstance(obj, dict):
        raise WireFormatError(f"{what} root must be a JSON object")
    return obj


def _unframe(data: object, expected_kind: int) -> dict:
    return _json_object(_unframe_bytes(data, expected_kind)[1])


# ----------------------------------------------------------------------
# tagged value codec
# ----------------------------------------------------------------------
def _encode_value(value: object, where: str) -> object:
    """JSON-encodable form of a value, preserving its exact type.

    Scalars pass through (JSON keeps ``int``/``float``/``bool``/``str``/
    ``None`` distinct, and ``repr``-based float serialization round-trips
    exactly); containers the fingerprint distinguishes are wrapped in a
    ``{"__t": ...}`` tag.  Sets serialize in the fingerprint's canonical
    element order so equal sets produce equal bytes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_encode_value(v, where) for v in value]
    if isinstance(value, tuple):
        return {"__t": "tuple", "v": [_encode_value(v, where) for v in value]}
    if isinstance(value, (set, frozenset)):
        from repro.graphs.fingerprint import _canonical_value

        ordered = sorted(value, key=_canonical_value)
        return {
            "__t": type(value).__name__,
            "v": [_encode_value(v, where) for v in ordered],
        }
    if isinstance(value, dict):
        return {
            "__t": "dict",
            "v": [
                [_encode_value(k, where), _encode_value(v, where)]
                for k, v in value.items()
            ],
        }
    if isinstance(value, (bytes, bytearray)):
        return {"__t": "bytes", "v": bytes(value).hex()}
    raise WireFormatError(
        f"unsupported value type {type(value).__name__} at {where}; the "
        f"wire format carries JSON scalars, list/tuple/set/frozenset/dict "
        f"containers and bytes"
    )


def _decode_value(value: object, where: str) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_decode_value(v, where) for v in value]
    if isinstance(value, dict):
        tag = value.get("__t")
        inner = value.get("v")
        if tag == "tuple" and isinstance(inner, list):
            return tuple(_decode_value(v, where) for v in inner)
        if tag == "set" and isinstance(inner, list):
            return set(_decode_value(v, where) for v in inner)
        if tag == "frozenset" and isinstance(inner, list):
            return frozenset(_decode_value(v, where) for v in inner)
        if tag == "dict" and isinstance(inner, list):
            out = {}
            for item in inner:
                if not isinstance(item, list) or len(item) != 2:
                    raise WireFormatError(
                        f"malformed dict entry at {where}: {item!r}"
                    )
                out[_decode_value(item[0], where)] = _decode_value(
                    item[1], where
                )
            return out
        if tag == "bytes" and isinstance(inner, str):
            try:
                return bytes.fromhex(inner)
            except ValueError as exc:
                raise WireFormatError(
                    f"malformed bytes value at {where}: {exc}"
                ) from exc
        raise WireFormatError(
            f"unknown value tag {tag!r} at {where}; payload may come from "
            f"a newer wire version"
        )
    raise WireFormatError(
        f"unexpected JSON value of type {type(value).__name__} at {where}"
    )


# ----------------------------------------------------------------------
# decode requests / responses
# ----------------------------------------------------------------------
@dataclass
class DecodeRequest:
    """A batch of encoder queues for one worker-side greedy decode.

    ``queues`` are what the sender's
    :func:`~repro.embedding.queue.build_encoder_queue` produced, byte for
    byte.  ``embedding_config`` is the config that embedded them; a
    worker refuses a request whose config differs from its scheduler's.
    ``options_key`` carries the sender's scheduler
    ``options_fingerprint()``; workers compare it against the fingerprint
    of the scheduler they rebuilt from the published weights epoch, so a
    request can never silently run under the wrong weights or options.
    """

    queues: List[EncoderQueue]
    embedding_config: EmbeddingConfig
    options_key: Optional[str] = None
    #: Optional ``{"trace_id": str, "span_id": str}`` span context from
    #: the sender.  Workers parent their decode sub-spans to ``span_id``
    #: and ship them back in the response.
    trace: Optional[Dict[str, str]] = None


@dataclass
class DecodeResponse:
    """Decoded node orders (as node names) plus decode log-probabilities."""

    orders: List[List[str]]
    log_probs: List[float]
    #: Worker-side span records (wire v2); empty for v1 frames or when
    #: the request carried no trace context.
    spans: List[dict] = dataclasses_field(default_factory=list)


def _validate_trace_context(trace: object) -> Optional[Dict[str, str]]:
    if trace is None:
        return None
    if (
        not isinstance(trace, dict)
        or not isinstance(trace.get("trace_id"), str)
        or not isinstance(trace.get("span_id"), str)
        or not trace["trace_id"]
        or not trace["span_id"]
    ):
        raise WireFormatError(
            f"trace context must be {{'trace_id': str, 'span_id': str}}, "
            f"got {trace!r}"
        )
    return {"trace_id": trace["trace_id"], "span_id": trace["span_id"]}


#: Length prefix of a decode request's JSON header.
_REQUEST_HEADER_LEN = struct.Struct("<I")

#: Byte order and width of shipped features: what ``pad_queues`` feeds
#: the decoder.
_FEATURE_DTYPE = np.dtype("<f8")


def encode_decode_request(
    graphs: Sequence[ComputationalGraph],
    options_key: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
    embedding_config: Optional[EmbeddingConfig] = None,
) -> bytes:
    """Embed ``graphs`` and serialize their encoder queues as one batch.

    ``embedding_config=None`` means ``EmbeddingConfig()``, the same
    default as :func:`~repro.embedding.queue.build_encoder_queue`.
    """
    graphs = list(graphs)
    if not graphs:
        raise WireFormatError("a decode request must carry at least one graph")
    if embedding_config is None:
        embedding_config = EmbeddingConfig()
    queues = [build_encoder_queue(graph, embedding_config) for graph in graphs]
    header = {
        "options_key": options_key,
        "embedding": asdict(embedding_config),
        "feature_dim": embedding_config.feature_dim,
        "node_names": [queue.node_names for queue in queues],
    }
    trace = _validate_trace_context(trace)
    if trace is not None:
        header["trace"] = trace
    header_bytes = _json_bytes(header)
    parts = [_REQUEST_HEADER_LEN.pack(len(header_bytes)), header_bytes]
    for queue in queues:
        parts.append(queue.features.astype(_FEATURE_DTYPE, copy=False).tobytes())
        parts.append(np.packbits(queue.precedence, axis=None).tobytes())
    return _frame_bytes(KIND_DECODE_REQUEST, b"".join(parts))


def _embedding_from_header(raw: object) -> EmbeddingConfig:
    """The request's :class:`EmbeddingConfig`, every field type-checked."""
    if not isinstance(raw, dict):
        raise WireFormatError(
            f"decode request embedding must be an object, got {raw!r}"
        )
    defaults = EmbeddingConfig()
    names = [f.name for f in fields(EmbeddingConfig)]
    if sorted(raw) != sorted(names):
        raise WireFormatError(
            f"decode request embedding has fields {sorted(raw)}, expected "
            f"{sorted(names)}"
        )
    for name in names:
        if type(raw[name]) is not type(getattr(defaults, name)):
            raise WireFormatError(
                f"decode request embedding field {name}={raw[name]!r} is "
                f"not a {type(getattr(defaults, name)).__name__}"
            )
    if raw["max_parents"] < 0:
        raise WireFormatError(
            f"decode request embedding max_parents={raw['max_parents']} "
            f"is negative"
        )
    return EmbeddingConfig(**raw)


def decode_decode_request(data: bytes) -> DecodeRequest:
    """Inverse of :func:`encode_decode_request`.

    Every header field and array length is checked before an array is
    built.  The queues' features are read-only views over the frame's
    bytes.
    """
    version, payload = _unframe_bytes(data, KIND_DECODE_REQUEST)
    if version < _TENSOR_REQUEST_VERSION:
        raise WireFormatError(
            f"decode request frame has wire version {version}; this build "
            f"decodes requests from version {_TENSOR_REQUEST_VERSION} on "
            f"(older requests carried graphs; resend from a current build)"
        )
    prefix = _REQUEST_HEADER_LEN.size
    if len(payload) < prefix:
        raise WireFormatError("decode request payload misses its header length")
    (header_len,) = _REQUEST_HEADER_LEN.unpack_from(payload)
    if header_len > len(payload) - prefix:
        raise WireFormatError(
            f"decode request header declares {header_len} bytes, payload "
            f"holds {len(payload) - prefix} after the length prefix"
        )
    header = _json_object(
        payload[prefix : prefix + header_len], "decode request header"
    )
    options_key = header.get("options_key")
    if options_key is not None and not isinstance(options_key, str):
        raise WireFormatError("decode request options_key must be a string")
    trace = _validate_trace_context(header.get("trace"))
    config = _embedding_from_header(header.get("embedding"))
    feature_dim = header.get("feature_dim")
    if type(feature_dim) is not int or feature_dim != config.feature_dim:
        raise WireFormatError(
            f"decode request features are {feature_dim!r} wide but its "
            f"embedding config produces {config.feature_dim}"
        )
    all_names = header.get("node_names")
    if not isinstance(all_names, list) or not all_names:
        raise WireFormatError("decode request carries no graphs")
    # Per queue: (feature bytes, bit-packed precedence bytes).
    sizes = []
    for b, names in enumerate(all_names):
        if not isinstance(names, list) or not names:
            raise WireFormatError(
                f"decode request graph {b} has no node names"
            )
        if not all(isinstance(name, str) for name in names):
            raise WireFormatError(
                f"decode request graph {b} has a non-string node name"
            )
        n = len(names)
        sizes.append(
            (n * feature_dim * _FEATURE_DTYPE.itemsize, (n * n + 7) // 8)
        )
    offset = prefix + header_len
    expected = offset + sum(f + p for f, p in sizes)
    if len(payload) != expected:
        raise WireFormatError(
            f"decode request array region is {len(payload) - offset} bytes; "
            f"{len(all_names)} queues of feature dim {feature_dim} "
            f"need exactly {expected - offset}"
        )
    queues = []
    for names, (feature_bytes, packed_bytes) in zip(all_names, sizes):
        n = len(names)
        features = np.frombuffer(
            payload, dtype=_FEATURE_DTYPE, count=n * feature_dim,
            offset=offset,
        ).reshape(n, feature_dim)
        offset += feature_bytes
        packed = np.frombuffer(
            payload, dtype=np.uint8, count=packed_bytes, offset=offset
        )
        offset += packed_bytes
        precedence = np.unpackbits(packed, count=n * n).reshape(n, n)
        queues.append(
            EncoderQueue(
                node_names=names, features=features,
                precedence=precedence.view(bool),
            )
        )
    return DecodeRequest(
        queues=queues, embedding_config=config, options_key=options_key,
        trace=trace,
    )


def encode_decode_response(
    orders: Sequence[Sequence[str]],
    log_probs: Sequence[float],
    spans: Optional[Sequence[dict]] = None,
) -> bytes:
    """Serialize decoded orders; one name list + log-prob per graph."""
    orders = [list(order) for order in orders]
    log_probs = [float(lp) for lp in log_probs]
    if len(orders) != len(log_probs):
        raise WireFormatError(
            f"decode response is inconsistent: {len(orders)} orders vs "
            f"{len(log_probs)} log-probs"
        )
    payload = {"orders": orders, "log_probs": log_probs}
    if spans:
        clean_spans = []
        for span in spans:
            if not isinstance(span, dict):
                raise WireFormatError(
                    f"decode response spans must be dicts, got {span!r}"
                )
            clean_spans.append(span)
        payload["spans"] = clean_spans
    return _frame(KIND_DECODE_RESPONSE, payload)


def decode_decode_response(data: bytes) -> DecodeResponse:
    """Inverse of :func:`encode_decode_response`."""
    payload = _unframe(data, KIND_DECODE_RESPONSE)
    orders = payload.get("orders")
    log_probs = payload.get("log_probs")
    raw_spans = payload.get("spans", [])
    if not isinstance(raw_spans, list) or not all(
        isinstance(s, dict) for s in raw_spans
    ):
        raise WireFormatError(
            f"decode response spans must be a list of objects, got "
            f"{raw_spans!r}"
        )
    if not isinstance(orders, list) or not isinstance(log_probs, list):
        raise WireFormatError("decode response misses orders/log_probs")
    if len(orders) != len(log_probs):
        raise WireFormatError(
            f"decode response is inconsistent: {len(orders)} orders vs "
            f"{len(log_probs)} log-probs"
        )
    clean_orders: List[List[str]] = []
    for order in orders:
        if not isinstance(order, list) or not all(
            isinstance(n, str) for n in order
        ):
            raise WireFormatError(f"malformed decode order: {order!r}")
        clean_orders.append(list(order))
    clean_probs: List[float] = []
    for lp in log_probs:
        if not isinstance(lp, (int, float)) or isinstance(lp, bool):
            raise WireFormatError(f"malformed log-probability: {lp!r}")
        clean_probs.append(float(lp))
    return DecodeResponse(
        orders=clean_orders, log_probs=clean_probs, spans=list(raw_spans)
    )


# ----------------------------------------------------------------------
# schedule-store entries / tombstones
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntryRecord:
    """One persisted schedule: its store key plus the cached payload.

    The on-disk twin of a :class:`~repro.service.cache.CachedSchedule`
    under its cache key, extended with the ``namespace`` that scopes it
    (per-shard / per-method isolation inside one store) and provenance
    (the scheduler ``options_fingerprint`` that produced it — redundant
    with the key on purpose, so a corrupted key can never alias a
    foreign payload — plus the decode-pool weights epoch when known).
    """

    namespace: str
    fingerprint: str
    num_stages: int
    options_key: str
    assignment: Dict[str, int]
    method: str
    objective: float
    status: str
    solve_time: float
    provenance: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class StoreTombstoneRecord:
    """A durable invalidation: kills all *earlier* entries it matches.

    Appended when a scheduler configuration is retired (most prominently
    by ``promote_challenger``): replaying a segment sequence applies
    entries and tombstones in append order, so entries written under
    ``options_key`` *before* the tombstone are dropped while entries a
    later scheduler generation re-publishes under the same key survive.
    """

    namespace: str
    options_key: str


def encode_store_entry(record: StoreEntryRecord) -> bytes:
    """Serialize one schedule-store entry frame."""
    assignment = dict(record.assignment)
    for node, stage in assignment.items():
        if not isinstance(node, str):
            raise WireFormatError(
                f"store entry assignment key {node!r} is not a node name"
            )
        if not isinstance(stage, int) or isinstance(stage, bool):
            raise WireFormatError(
                f"store entry assignment stage {stage!r} is not an int"
            )
    return _frame(
        KIND_STORE_ENTRY,
        {
            "namespace": record.namespace,
            "fingerprint": record.fingerprint,
            "num_stages": record.num_stages,
            "options_key": record.options_key,
            "assignment": [[k, v] for k, v in assignment.items()],
            "method": record.method,
            "objective": record.objective,
            "status": record.status,
            "solve_time": record.solve_time,
            "provenance": (
                None
                if record.provenance is None
                else _encode_value(dict(record.provenance), "store entry provenance")
            ),
        },
    )


def decode_store_entry(data: bytes) -> StoreEntryRecord:
    """Inverse of :func:`encode_store_entry`, fully validated."""
    payload = _unframe(data, KIND_STORE_ENTRY)
    namespace = payload.get("namespace")
    fingerprint = payload.get("fingerprint")
    num_stages = payload.get("num_stages")
    options_key = payload.get("options_key")
    assignment = payload.get("assignment")
    method = payload.get("method")
    objective = payload.get("objective")
    status = payload.get("status")
    solve_time = payload.get("solve_time")
    if (
        not isinstance(namespace, str)
        or not isinstance(fingerprint, str)
        or not isinstance(options_key, str)
        or not isinstance(num_stages, int)
        or isinstance(num_stages, bool)
        or not isinstance(assignment, list)
        or not isinstance(method, str)
        or not isinstance(status, str)
    ):
        raise WireFormatError(
            "store entry payload misses namespace/fingerprint/num_stages/"
            "options_key/assignment/method/status"
        )
    if num_stages < 1:
        raise WireFormatError(f"store entry declares {num_stages} stages")
    for value, name in ((objective, "objective"), (solve_time, "solve_time")):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise WireFormatError(f"store entry {name} {value!r} is not a number")
    clean: Dict[str, int] = {}
    for item in assignment:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], int)
            or isinstance(item[1], bool)
        ):
            raise WireFormatError(f"malformed store assignment entry: {item!r}")
        if not 0 <= item[1] < num_stages:
            raise WireFormatError(
                f"store assignment stage {item[1]} outside [0, {num_stages})"
            )
        clean[item[0]] = item[1]
    provenance = payload.get("provenance")
    if provenance is not None:
        provenance = _decode_value(provenance, "store entry provenance")
        if not isinstance(provenance, dict):
            raise WireFormatError("store entry provenance must decode to a dict")
    return StoreEntryRecord(
        namespace=namespace,
        fingerprint=fingerprint,
        num_stages=num_stages,
        options_key=options_key,
        assignment=clean,
        method=method,
        objective=float(objective),
        status=status,
        solve_time=float(solve_time),
        provenance=provenance,
    )


def encode_store_tombstone(record: StoreTombstoneRecord) -> bytes:
    """Serialize one durable-invalidation tombstone frame."""
    return _frame(
        KIND_STORE_TOMBSTONE,
        {"namespace": record.namespace, "options_key": record.options_key},
    )


def decode_store_tombstone(data: bytes) -> StoreTombstoneRecord:
    """Inverse of :func:`encode_store_tombstone`."""
    payload = _unframe(data, KIND_STORE_TOMBSTONE)
    namespace = payload.get("namespace")
    options_key = payload.get("options_key")
    if not isinstance(namespace, str) or not isinstance(options_key, str):
        raise WireFormatError(
            "store tombstone payload misses namespace/options_key"
        )
    return StoreTombstoneRecord(namespace=namespace, options_key=options_key)


__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "HEADER_SIZE",
    "frame_info",
    "KIND_GRAPH",
    "KIND_DECODE_REQUEST",
    "KIND_DECODE_RESPONSE",
    "KIND_SCHEDULE",
    "KIND_OPTIONS",
    "KIND_STORE_ENTRY",
    "KIND_STORE_TOMBSTONE",
    "DecodeRequest",
    "DecodeResponse",
    "StoreEntryRecord",
    "StoreTombstoneRecord",
    "encode_decode_request",
    "decode_decode_request",
    "encode_decode_response",
    "decode_decode_response",
    "encode_store_entry",
    "decode_store_entry",
    "encode_store_tombstone",
    "decode_store_tombstone",
]
