"""Content-addressed fingerprints of computational graphs.

A scheduling service that caches solved schedules needs a key that is
*exactly* as discriminating as the scheduler itself: two graphs may share
a cache entry only if every input the scheduling pipeline consumes is
identical.  For this library that input set is larger than "topology plus
byte sizes" — the embedding hashes node *names* into features and fills
parent slots in *parent insertion order* (see
:mod:`repro.embedding.features`), and the encoder queue follows the
graph's insertion-stable topological order — so the exact fingerprint
covers names, node insertion order, parent order, op types and every
resource attribute.

Two fingerprints are provided:

:func:`graph_fingerprint`
    The cache key.  SHA-256 over a canonical, length-prefixed binary
    serialization of the graph.  Every field is emitted with an explicit
    length or fixed width, so no two distinct graphs serialize to the
    same byte stream (the classic ``"ab"+"c"`` vs ``"a"+"bc"``
    concatenation collision cannot occur); collision resistance then
    reduces to SHA-256's.  Equal fingerprint <=> equal serialization,
    which implies every deterministic scheduler produces bit-identical
    schedules for the two graphs.

:func:`structural_fingerprint`
    An isomorphism-invariant digest that *ignores* node names and
    insertion order: Weisfeiler-Lehman color refinement over
    ``(op_type, param_bytes, output_bytes, macs)``-seeded colors, hashed
    as an unordered multiset.  Isomorphic graphs (same shape and
    attributes under any renaming/reordering) always agree; use it for
    workload analytics and dedup reporting, never as a schedule cache
    key — the scheduler is *not* invariant under renaming.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Dict, List, Sequence

from repro.graphs.dag import (
    RESOURCE_FIELDS,
    ComputationalGraph,
    OpNode,
    resource_value,
)

#: Bump when the serialization layout changes so stale persisted keys
#: can never alias fresh ones.
FINGERPRINT_VERSION = "repro-graph-fp-v1"

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_INT_TAG = b"i"
_VERSION_BYTES = FINGERPRINT_VERSION.encode("utf-8")
_HEADER = _U64.pack(len(_VERSION_BYTES)) + _VERSION_BYTES


def _str_bytes(text: str) -> bytes:
    """Length-prefixed UTF-8 (prefixing prevents concat collisions)."""
    data = text.encode("utf-8")
    return _U64.pack(len(data)) + data


def _int_bytes(value: int) -> bytes:
    # Arbitrary-precision ints fall back to the length-prefixed string
    # path; the fixed-width form covers every realistic byte count.
    if -(2**63) <= value < 2**63:
        return _INT_TAG + _I64.pack(value)
    return b"I" + _str_bytes(str(value))


@lru_cache(maxsize=1024)
def _node_struct(name_len: int, op_len: int, num_parents: int) -> struct.Struct:
    """The packed layout of one node with int64-range fields.

    Name and op type are length-prefixed strings; the three resource
    fields, the parent count, each parent index and the attr count are
    ``b"i"``-tagged int64s.  Keyed by node shape; bounded, because names
    of every length pass through a long-lived service.
    """
    return struct.Struct(
        f"<Q{name_len}sQ{op_len}s" + "cq" * (len(RESOURCE_FIELDS) + 2 + num_parents)
    )


def _node_bytes(
    node: OpNode, parent_indices: Sequence[int], attr_count: int
) -> bytes:
    """Field-by-field form of :func:`_node_struct`'s layout.

    Used for nodes the struct cannot pack: a resource field that is not
    a plain ``int`` (validated and coerced by
    :func:`~repro.graphs.dag.resource_value`), or one outside int64,
    which takes the ``b"I"`` string form.
    """
    parts = [_str_bytes(node.name), _str_bytes(node.op_type)]
    parts += [_int_bytes(resource_value(node, field)) for field in RESOURCE_FIELDS]
    parts.append(_int_bytes(len(parent_indices)))
    parts += [_int_bytes(index) for index in parent_indices]
    parts.append(_int_bytes(attr_count))
    return b"".join(parts)


def _canonical_value(value: object) -> str:
    """Deterministic string form of a free-form attr value.

    Containers are canonicalized recursively (dicts by sorted key) so
    attr equality — not dict insertion order — decides fingerprint
    equality.  The type name is included so ``1`` and ``1.0`` and
    ``True`` stay distinct.
    """
    if isinstance(value, dict):
        items = sorted(
            ((repr(k), _canonical_value(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        return "dict{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical_value(v) for v in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_canonical_value(v) for v in value))
        return f"{type(value).__name__}{{{inner}}}"
    return f"{type(value).__name__}:{value!r}"


def graph_fingerprint(
    graph: ComputationalGraph, include_attrs: bool = True
) -> str:
    """Exact content fingerprint of ``graph`` (64 hex chars).

    Covers, in canonical order: node count; then per node in insertion
    order its name, op type, ``param_bytes``, ``output_bytes``, ``macs``,
    parent indices in parent insertion order, and (unless
    ``include_attrs=False``) its free-form attrs canonicalized by sorted
    key.  The graph's display ``name`` is deliberately excluded — it
    never reaches any scheduler.  A resource field that is not an
    integer raises :class:`~repro.errors.GraphError` (the fields are
    mutable after construction, so this is checked here too).

    Equal fingerprints guarantee that every deterministic scheduler in
    this library produces identical schedules for the two graphs, which
    is what makes the fingerprint safe as a schedule-cache key (see
    :class:`repro.service.ScheduleCache`).

    The byte layout is the ``repro-graph-fp-v1`` one, so digests and
    persisted store keys are stable.  It is produced with one
    precompiled ``struct.Struct`` per node shape (name length, op-type
    length, parent count; see :func:`_node_struct`) and hashed with a
    single SHA-256 update over the joined bytes — SHA-256 does not
    depend on how its input is chunked.  Nothing is memoized per graph:
    a ``graph.copy()`` is fingerprinted from scratch, and no cache may
    ever carry a digest across ``graph.copy()`` (copies are mutable and
    serving tiers fingerprint fresh copies on purpose).
    """
    # The graph's own order and adjacency maps, read in place: the public
    # accessors copy a list per call, a tenth of this function's time.
    order = graph._order
    nodes = graph._nodes
    parents_of = graph._parents
    index = graph.build_index()
    chunks = [_HEADER, _int_bytes(len(order))]
    append = chunks.append
    tag = _INT_TAG
    for name in order:
        node = nodes[name]
        name_bytes = node.name.encode("utf-8")
        op_bytes = node.op_type.encode("utf-8")
        parents = parents_of[name]
        attrs = node.attrs
        attr_count = len(attrs) if include_attrs else -1
        param_bytes, output_bytes, macs = node.param_bytes, node.output_bytes, node.macs
        args = [
            len(name_bytes), name_bytes, len(op_bytes), op_bytes,
            tag, param_bytes, tag, output_bytes, tag, macs, tag, len(parents),
        ]
        for parent in parents:
            args += (tag, index[parent])
        args += (tag, attr_count)
        packed = None
        if type(param_bytes) is int and type(output_bytes) is int and type(macs) is int:
            layout = _node_struct(len(name_bytes), len(op_bytes), len(parents))
            try:
                packed = layout.pack(*args)
            except struct.error:  # a field outside int64
                pass
        if packed is None:
            packed = _node_bytes(node, [index[p] for p in parents], attr_count)
        append(packed)
        if include_attrs and attrs:
            items = sorted(
                ((repr(k), _canonical_value(v)) for k, v in attrs.items()),
                key=lambda kv: kv[0],
            )
            for key, value in items:
                append(_str_bytes(key))
                append(_str_bytes(value))
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structural_fingerprint(graph: ComputationalGraph) -> str:
    """Isomorphism-invariant fingerprint (names and order ignored).

    Weisfeiler-Lehman refinement: every node starts with a color derived
    from ``(op_type, param_bytes, output_bytes, macs)`` and is repeatedly
    re-colored with the sorted multisets of its parents' and children's
    colors until the color partition stabilizes (at most ``|V|`` rounds).
    The digest hashes the final color multiset plus the edge-color-pair
    multiset, so any renaming or insertion reordering of the same graph
    agrees.  WL cannot distinguish *every* non-isomorphic pair, but
    differing fingerprints always mean non-isomorphic graphs.
    """
    names = graph.node_names
    colors: Dict[str, str] = {
        name: _digest(
            "wl-seed|"
            + "|".join(
                str(v)
                for v in (
                    graph.node(name).op_type,
                    graph.node(name).param_bytes,
                    graph.node(name).output_bytes,
                    graph.node(name).macs,
                )
            )
        )
        for name in names
    }
    distinct = len(set(colors.values()))
    for _ in range(max(1, graph.num_nodes)):
        colors = {
            name: _digest(
                colors[name]
                + "|P:" + ",".join(sorted(colors[p] for p in graph.parents(name)))
                + "|C:" + ",".join(sorted(colors[c] for c in graph.children(name)))
            )
            for name in names
        }
        refined = len(set(colors.values()))
        if refined == distinct:
            break
        distinct = refined
    node_part: List[str] = sorted(colors.values())
    edge_part: List[str] = sorted(
        f"{colors[u]}->{colors[v]}" for u, v in graph.edges()
    )
    return _digest(
        "wl-final|" + ";".join(node_part) + "|E|" + ";".join(edge_part)
    )


__all__ = [
    "FINGERPRINT_VERSION",
    "graph_fingerprint",
    "structural_fingerprint",
]
