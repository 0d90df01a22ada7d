"""RESPECT — RL-based edge scheduling on pipelined Coral Edge TPUs.

A from-scratch reproduction of Yin et al., DAC 2023 (arXiv:2304.04716):
an LSTM pointer network trained on synthetic DAGs imitates an exact
(ILP) scheduler and partitions DNN computational graphs across
multi-stage pipelined Edge TPU systems at heuristic-level solving cost.

Quick start::

    from repro import build_model, quantize_graph, RespectScheduler, deploy

    graph = quantize_graph(build_model("ResNet50"))
    result = RespectScheduler().schedule(graph, num_stages=4)
    pipeline = deploy(graph, result.schedule)
    report = pipeline.simulate(num_inferences=1000)
    print(report.seconds_per_inference)

See the README's "Layout" table for the system inventory and ROADMAP.md
item 9 for the paper-vs-measured status of the reproduced figures.
"""

from repro.embedding import EmbeddingConfig, build_encoder_queue, embed_graph
from repro.graphs import (
    ComputationalGraph,
    OpNode,
    SyntheticDAGSampler,
    asap_levels,
    graph_depth,
)
from repro.models import build_model, list_models, model_statistics
from repro.rl import PointerNetworkPolicy, RespectScheduler, load_pretrained_policy
from repro.scheduling import (
    BranchAndBoundScheduler,
    EdgeTpuCompilerProxy,
    IlpScheduler,
    ListScheduler,
    Schedule,
    ScheduleResult,
    pack_sequence,
    postprocess_schedule,
)
from repro.tpu import (
    EdgeTPUSpec,
    PipelinedTpuSystem,
    default_spec,
    deploy,
    quantize_graph,
)

__version__ = "1.0.0"

__all__ = [
    "BranchAndBoundScheduler",
    "ComputationalGraph",
    "EdgeTPUSpec",
    "EdgeTpuCompilerProxy",
    "EmbeddingConfig",
    "IlpScheduler",
    "ListScheduler",
    "OpNode",
    "PipelinedTpuSystem",
    "PointerNetworkPolicy",
    "RespectScheduler",
    "Schedule",
    "ScheduleResult",
    "SyntheticDAGSampler",
    "asap_levels",
    "build_encoder_queue",
    "build_model",
    "default_spec",
    "deploy",
    "embed_graph",
    "graph_depth",
    "list_models",
    "load_pretrained_policy",
    "model_statistics",
    "pack_sequence",
    "postprocess_schedule",
    "quantize_graph",
]
