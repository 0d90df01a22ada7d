"""Directed-acyclic computational graphs.

A :class:`ComputationalGraph` models a DNN the way a deep-learning
compiler sees it after static compilation (Sec. II of the paper): nodes
are operators, edges are tensor dataflows.  Each node carries the three
attributes the scheduling problem cares about:

``param_bytes``
    Size of the operator's weights/parameters.  Pipelined Edge TPUs cache
    parameters in 8 MiB of on-chip SRAM; the per-stage sum of this
    attribute is the quantity the exact scheduler balances (Fig. 5).
``output_bytes``
    Size of the operator's output activation tensor.  When an edge crosses
    a pipeline-stage boundary this many bytes travel over the USB host bus
    every inference.
``macs``
    Multiply-accumulate count, used by the Edge TPU latency model.

The class keeps nodes in insertion order, maintains parent/child
adjacency, and exposes the derived quantities (degree statistics, sources
and sinks, topological order) that the embeddings and schedulers build on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CycleError, GraphError


@dataclass
class OpNode:
    """A single operator in a computational graph.

    Parameters
    ----------
    name:
        Unique node identifier within its graph (e.g. ``"conv2_block1_1_conv"``).
    op_type:
        Operator kind (see :mod:`repro.graphs.ops` for the taxonomy).
    param_bytes:
        Parameter (weight) footprint in bytes.
    output_bytes:
        Output activation tensor size in bytes.
    macs:
        Number of multiply-accumulate operations performed per inference.
    attrs:
        Free-form operator attributes (kernel size, strides, shapes, ...).
    """

    name: str
    op_type: str = "generic"
    param_bytes: int = 0
    output_bytes: int = 0
    macs: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("node name must be a non-empty string")
        for field_name in RESOURCE_FIELDS:
            resource_value(self, field_name)
        if self.param_bytes < 0 or self.output_bytes < 0 or self.macs < 0:
            raise GraphError(
                f"node {self.name!r}: resource attributes must be non-negative"
            )

    def copy(self) -> "OpNode":
        """Return a deep-enough copy (attrs dict is shallow-copied)."""
        return OpNode(
            name=self.name,
            op_type=self.op_type,
            param_bytes=self.param_bytes,
            output_bytes=self.output_bytes,
            macs=self.macs,
            attrs=dict(self.attrs),
        )


#: The integer resource attributes of an :class:`OpNode`.
RESOURCE_FIELDS = ("param_bytes", "output_bytes", "macs")


def resource_value(node: OpNode, field_name: str) -> int:
    """``node.<field_name>`` as a Python int; non-integers are rejected.

    Only ``numbers.Integral`` values (ints, bools, numpy integers) are
    accepted.  A float such as ``4096.9`` would be truncated by the graph
    fingerprint but not by the embedding, so two graphs the scheduler
    tells apart could share one schedule-cache key.
    """
    value = getattr(node, field_name)
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise GraphError(
            f"node {node.name!r}: {field_name} must be an integer, "
            f"got {type(value).__name__} {value!r}"
        )
    return int(value)


class ComputationalGraph:
    """A DAG of :class:`OpNode` operators connected by dataflow edges.

    Nodes are addressed by name; integer indices follow insertion order and
    are what the embedding matrices and schedule vectors use.  Edges are
    unique and self-loops are rejected; acyclicity is enforced lazily by
    :meth:`topological_order` (and eagerly by :meth:`assert_acyclic`).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[str, OpNode] = {}
        self._order: List[str] = []
        self._parents: Dict[str, List[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: OpNode) -> str:
        """Insert ``node``; returns its name.  Duplicate names are errors."""
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._order.append(node.name)
        self._parents[node.name] = []
        self._children[node.name] = []
        return node.name

    def add_op(
        self,
        name: str,
        op_type: str = "generic",
        param_bytes: int = 0,
        output_bytes: int = 0,
        macs: int = 0,
        inputs: Sequence[str] = (),
        **attrs: object,
    ) -> str:
        """Convenience: create a node and wire ``inputs -> node`` edges."""
        self.add_node(
            OpNode(
                name=name,
                op_type=op_type,
                param_bytes=param_bytes,
                output_bytes=output_bytes,
                macs=macs,
                attrs=dict(attrs),
            )
        )
        for src in inputs:
            self.add_edge(src, name)
        return name

    def add_edge(self, src: str, dst: str) -> None:
        """Add the dataflow edge ``src -> dst``."""
        if src not in self._nodes:
            raise GraphError(f"edge source {src!r} is not a node")
        if dst not in self._nodes:
            raise GraphError(f"edge destination {dst!r} is not a node")
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed in a DAG")
        if dst in self._children[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self._children[src].append(dst)
        self._parents[dst].append(src)
        self._num_edges += 1

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, name: str) -> OpNode:
        """Return the node called ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_names(self) -> List[str]:
        """Node names in insertion order."""
        return list(self._order)

    @property
    def nodes(self) -> List[OpNode]:
        """Nodes in insertion order."""
        return [self._nodes[n] for n in self._order]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate over ``(src, dst)`` edges in insertion order of sources."""
        for src in self._order:
            for dst in self._children[src]:
                yield (src, dst)

    def parents(self, name: str) -> List[str]:
        """Direct predecessors of ``name`` (insertion order)."""
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        return list(self._parents[name])

    def children(self, name: str) -> List[str]:
        """Direct successors of ``name`` (insertion order)."""
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        return list(self._children[name])

    def in_degree(self, name: str) -> int:
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        return len(self._parents[name])

    def out_degree(self, name: str) -> int:
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        return len(self._children[name])

    @property
    def max_in_degree(self) -> int:
        """``deg(V)`` in the paper: maximum number of incoming edges."""
        if not self._nodes:
            return 0
        return max(len(p) for p in self._parents.values())

    @property
    def sources(self) -> List[str]:
        """Nodes with no parents (model inputs)."""
        return [n for n in self._order if not self._parents[n]]

    @property
    def sinks(self) -> List[str]:
        """Nodes with no children (model outputs)."""
        return [n for n in self._order if not self._children[n]]

    def index_of(self, name: str) -> int:
        """Insertion index of ``name`` (the node's row in embeddings)."""
        try:
            return self._order.index(name)
        except ValueError:
            raise GraphError(f"unknown node {name!r}") from None

    def build_index(self) -> Dict[str, int]:
        """Return a name -> insertion-index map (computed once, O(|V|))."""
        return {name: i for i, name in enumerate(self._order)}

    # ------------------------------------------------------------------
    # aggregate resource statistics
    # ------------------------------------------------------------------
    @property
    def total_param_bytes(self) -> int:
        return sum(n.param_bytes for n in self._nodes.values())

    @property
    def total_output_bytes(self) -> int:
        return sum(n.output_bytes for n in self._nodes.values())

    @property
    def total_macs(self) -> int:
        return sum(n.macs for n in self._nodes.values())

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn topological order, stable w.r.t. insertion order.

        Raises
        ------
        CycleError
            If the graph contains a directed cycle.
        """
        indegree = {n: len(self._parents[n]) for n in self._order}
        ready = [n for n in self._order if indegree[n] == 0]
        result: List[str] = []
        cursor = 0
        # `ready` is consumed in FIFO order; appended nodes keep insertion
        # order because children lists preserve it.
        while cursor < len(ready):
            node = ready[cursor]
            cursor += 1
            result.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(result) != len(self._order):
            unresolved = [n for n in self._order if indegree[n] > 0]
            raise CycleError(
                f"graph {self.name!r} contains a cycle among {unresolved[:5]}"
            )
        return result

    def is_dag(self) -> bool:
        """True iff the graph has no directed cycle."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def assert_acyclic(self) -> None:
        """Raise :class:`CycleError` if the graph is not a DAG."""
        self.topological_order()

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "ComputationalGraph":
        """Deep copy (nodes are copied; edge structure is rebuilt)."""
        out = ComputationalGraph(name=name or self.name)
        for node_name in self._order:
            out.add_node(self._nodes[node_name].copy())
        for src, dst in self.edges():
            out.add_edge(src, dst)
        return out

    def subgraph(self, names: Sequence[str], name: str = "") -> "ComputationalGraph":
        """Induced subgraph on ``names`` (kept in original insertion order)."""
        keep = set(names)
        missing = keep - set(self._nodes)
        if missing:
            raise GraphError(f"subgraph refers to unknown nodes {sorted(missing)[:5]}")
        out = ComputationalGraph(name=name or f"{self.name}_sub")
        for node_name in self._order:
            if node_name in keep:
                out.add_node(self._nodes[node_name].copy())
        for src, dst in self.edges():
            if src in keep and dst in keep:
                out.add_edge(src, dst)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ComputationalGraph(name={self.name!r}, |V|={self.num_nodes}, "
            f"|E|={self.num_edges})"
        )
