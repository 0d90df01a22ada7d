"""Experiment E6 — ablations of the reproduction's design choices.

Each ablation isolates one mechanism:

* **reward** — stage-vector cosine (Eq. 3) vs raw sequence cosine
  (Eq. 1) vs exact-match, measured on a trained policy's rollouts;
* **baseline** — REINFORCE variance with rollout / batch-mean / no
  baseline over a short training run;
* **embedding columns** — imitation accuracy with parent IDs or the
  memory column removed;
* **post-processing** — dependency-violation counts of unconstrained
  decoding with and without repair (and with the precedence mask);
* **bus topology** — simulated runtime under the shared-bus worst case
  vs per-stage links (why communication-oblivious schedules collapse);
* **rho budget slack** — sensitivity of packed peak memory to the
  per-stage budget multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.synthetic import (
    LabeledExample,
    batch_examples,
    generate_dataset,
    stack_precedence,
)
from repro.embedding.features import EmbeddingConfig
from repro.models.zoo import build_model
from repro.rl.imitation import ImitationConfig, ImitationTrainer
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.rl.respect import RespectScheduler
from repro.rl.reward import (
    exact_match_fraction,
    sequence_cosine_reward,
    stage_cosine_reward,
)
from repro.scheduling.compiler_proxy import EdgeTpuCompilerProxy
from repro.scheduling.ilp import IlpScheduler
from repro.scheduling.postprocess import postprocess_schedule, repair_dependencies
from repro.scheduling.sequence import pack_sequence
from repro.tpu.pipeline import PipelinedTpuSystem
from repro.tpu.quantize import quantize_graph
from repro.utils.stats import mean, stddev


# ----------------------------------------------------------------------
# reward-definition ablation
# ----------------------------------------------------------------------
def ablate_reward_definitions(
    policy: PointerNetworkPolicy,
    examples: Sequence[LabeledExample],
) -> Dict[str, float]:
    """Mean value of each reward definition over greedy rollouts."""
    seq_rewards: List[float] = []
    stage_rewards: List[float] = []
    matches: List[float] = []
    for chunk, features, targets in batch_examples(
        examples, batch_size=16, shuffle=False
    ):
        rollout = policy.greedy_decode(
            features, precedence=stack_precedence(chunk)
        )
        for b, example in enumerate(chunk):
            pi = rollout.actions[b]
            gamma = targets[b]
            seq_rewards.append(sequence_cosine_reward(pi, gamma))
            matches.append(exact_match_fraction(pi, gamma))
            packed_pi = pack_sequence(
                example.graph, example.queue.names_for(pi), example.num_stages
            )
            packed_gamma = pack_sequence(
                example.graph, example.queue.names_for(gamma), example.num_stages
            )
            names = example.queue.node_names
            stage_rewards.append(
                stage_cosine_reward(
                    [packed_pi.assignment[n] for n in names],
                    [packed_gamma.assignment[n] for n in names],
                )
            )
    return {
        "sequence_cosine_eq1": mean(seq_rewards),
        "stage_cosine_eq3": mean(stage_rewards),
        "exact_match": mean(matches),
    }


# ----------------------------------------------------------------------
# baseline-variant ablation
# ----------------------------------------------------------------------
def ablate_baselines(
    examples: Sequence[LabeledExample],
    feature_dim: int,
    steps: int = 15,
    hidden_size: int = 24,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Short REINFORCE runs per baseline kind; reports advantage spread.

    The rollout baseline should show the smallest advantage standard
    deviation (that is its purpose — Eq. 6's variance reduction).
    """
    out: Dict[str, Dict[str, float]] = {}
    for kind in ("rollout", "batch_mean", "none"):
        policy = PointerNetworkPolicy(
            feature_dim=feature_dim, hidden_size=hidden_size, seed=seed
        )
        trainer = ReinforceTrainer(
            policy,
            list(examples),
            ReinforceConfig(batch_size=8, baseline=kind, seed=seed),
        )
        history = trainer.train(steps)
        advantages = [m.mean_cost - m.mean_baseline for m in history]
        out[kind] = {
            "final_cost": history[-1].mean_cost,
            "advantage_std": stddev(advantages),
            "mean_grad_norm": mean([m.grad_norm for m in history]),
        }
    return out


# ----------------------------------------------------------------------
# embedding-column ablation
# ----------------------------------------------------------------------
def ablate_embedding_columns(
    steps: int = 40,
    dataset_size: int = 60,
    num_nodes: int = 12,
    hidden_size: int = 32,
    seed: int = 0,
) -> Dict[str, float]:
    """Imitation token accuracy with embedding column groups removed."""
    variants = {
        "full": EmbeddingConfig(),
        "no_parent_ids": EmbeddingConfig(include_parent_ids=False),
        "no_memory": EmbeddingConfig(include_memory=False),
        "no_parent_levels": EmbeddingConfig(include_parent_levels=False),
    }
    out: Dict[str, float] = {}
    for name, config in variants.items():
        examples = generate_dataset(
            dataset_size, num_nodes=num_nodes, embedding=config, seed=seed
        )
        policy = PointerNetworkPolicy(
            feature_dim=config.feature_dim, hidden_size=hidden_size, seed=seed
        )
        trainer = ImitationTrainer(
            policy, examples, ImitationConfig(batch_size=8, seed=seed)
        )
        history = trainer.train(steps)
        out[name] = history[-1].token_accuracy
    return out


# ----------------------------------------------------------------------
# post-processing ablation
# ----------------------------------------------------------------------
@dataclass
class PostprocessAblation:
    """Dependency-violation statistics of one decoding configuration."""

    mean_violations_raw: float
    mean_violations_repaired: float
    mean_peak_bytes_raw: float
    mean_peak_bytes_repaired: float


def ablate_postprocessing(
    respect: Optional[RespectScheduler] = None,
    models: Sequence[str] = ("Xception", "ResNet50"),
    num_stages: int = 4,
) -> Dict[str, PostprocessAblation]:
    """Compare constrained vs unconstrained decoding, before/after repair."""
    base = respect or RespectScheduler()
    out: Dict[str, PostprocessAblation] = {}
    graphs = [quantize_graph(build_model(name)) for name in models]
    for constrained in (True, False):
        scheduler = RespectScheduler(
            policy=base.policy,
            embedding_config=base.embedding_config,
            budget_slack=base.budget_slack,
            constrain_topological=constrained,
        )
        violations_raw: List[float] = []
        violations_rep: List[float] = []
        peak_raw: List[float] = []
        peak_rep: List[float] = []
        # One padded batched decode covers every model in this variant.
        orders = scheduler.decode_orders(graphs)
        for graph, order in zip(graphs, orders):
            raw = pack_sequence(graph, order, num_stages)
            repaired = repair_dependencies(raw)
            violations_raw.append(len(raw.dependency_violations()))
            violations_rep.append(len(repaired.dependency_violations()))
            peak_raw.append(raw.peak_stage_param_bytes)
            peak_rep.append(repaired.peak_stage_param_bytes)
        key = "constrained" if constrained else "unconstrained"
        out[key] = PostprocessAblation(
            mean_violations_raw=mean(violations_raw),
            mean_violations_repaired=mean(violations_rep),
            mean_peak_bytes_raw=mean(peak_raw),
            mean_peak_bytes_repaired=mean(peak_rep),
        )
    return out


# ----------------------------------------------------------------------
# bus-topology ablation
# ----------------------------------------------------------------------
def ablate_bus_topology(
    model: str = "ResNet50",
    num_stages: int = 6,
    num_inferences: int = 200,
) -> Dict[str, Dict[str, float]]:
    """Per-inference runtime under per-stage links vs one shared bus."""
    graph = quantize_graph(build_model(model))
    out: Dict[str, Dict[str, float]] = {}
    for method_name, scheduler in (
        ("edgetpu_compiler", EdgeTpuCompilerProxy()),
        ("ilp", IlpScheduler()),
    ):
        result = scheduler.schedule(graph, num_stages)
        row: Dict[str, float] = {}
        for mode in ("per_stage", "shared"):
            system = PipelinedTpuSystem(bus_mode=mode)
            report = system.run(graph, result.schedule, num_inferences)
            row[mode] = report.seconds_per_inference
        out[method_name] = row
    return out


# ----------------------------------------------------------------------
# rho budget-slack ablation
# ----------------------------------------------------------------------
def ablate_budget_slack(
    respect: Optional[RespectScheduler] = None,
    model: str = "ResNet50",
    num_stages: int = 4,
    slacks: Sequence[float] = (1.0, 1.05, 1.1, 1.25, 1.5),
) -> Dict[float, int]:
    """Peak memory of the packed schedule as the rho budget slack varies."""
    base = respect or RespectScheduler()
    graph = quantize_graph(build_model(model))
    # The greedy decode is slack-independent: decode once, re-pack per
    # slack (same schedules as one full scheduler run per slack).
    order = base.decode_orders([graph])[0]
    out: Dict[float, int] = {}
    for slack in slacks:
        packed = pack_sequence(graph, order, num_stages, budget_slack=slack)
        schedule = postprocess_schedule(
            packed, enforce_siblings=base.enforce_siblings
        )
        out[slack] = schedule.peak_stage_param_bytes
    return out
