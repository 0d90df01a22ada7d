"""Per-operator and per-stage latency model.

Follows the empirical Edge TPU characterization of Boroumand et al. [3]:
compute ops are bounded by the systolic array's sustained MAC rate for
their kind, element-wise ops by on-chip data-movement throughput, and
off-chip parameters by USB streaming — the dominant term whenever a
stage's weights overflow SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs import ops
from repro.graphs.dag import ComputationalGraph, OpNode
from repro.tpu.caching import CachingPlan
from repro.tpu.spec import EdgeTPUSpec


def op_compute_seconds(node: OpNode, spec: EdgeTPUSpec) -> float:
    """On-device execution time of a single operator (weights resident)."""
    if node.op_type in ops.COMPUTE_OPS and node.macs:
        return node.macs / spec.sustained_macs_per_s(node.op_type)
    if node.op_type == ops.INPUT:
        return 0.0
    # Element-wise / pooling / padding: data-movement bound.
    return node.output_bytes / spec.elementwise_bytes_per_s


def weight_stream_seconds(off_chip_bytes: int, spec: EdgeTPUSpec) -> float:
    """Per-inference USB time to stream this stage's off-chip weights."""
    if off_chip_bytes == 0:
        return 0.0
    raw = spec.usb.transfer_seconds(off_chip_bytes)
    return raw * spec.weight_stream_overhead


@dataclass(frozen=True)
class StageLatency:
    """Latency decomposition of one pipeline stage per inference."""

    compute_seconds: float
    weight_stream_seconds: float


def profile_stage(
    graph: ComputationalGraph,
    stage_nodes: Sequence[str],
    caching_plan: CachingPlan,
    spec: EdgeTPUSpec,
) -> StageLatency:
    """Aggregate latency of one stage given its parameter-cache plan."""
    compute = sum(op_compute_seconds(graph.node(n), spec) for n in stage_nodes)
    streaming = weight_stream_seconds(caching_plan.off_chip_total, spec)
    return StageLatency(compute_seconds=compute, weight_stream_seconds=streaming)
