"""REINFORCE training with a rollout baseline (Eq. 5/6 of the paper).

The policy samples node sequences; each is packed through ``rho`` and
rewarded by the cosine similarity (Eq. 3) between its stage vector and
the exact schedule's.  The surrogate loss per sample is

``(cost - baseline) * (-log p(pi))``   with ``cost = 1 - R``,

where the baseline is the *rollout baseline* of Kool et al. [7]: the
greedy decode of the best-so-far frozen policy on the same graph.  The
frozen policy is refreshed whenever the training policy beats it on a
held-out evaluation split.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.synthetic import LabeledExample, batch_examples, stack_precedence
from repro.errors import TrainingError
from repro.nn.adam import Adam
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.reward import stage_cosine_reward
from repro.scheduling.sequence import pack_sequence
from repro.utils.rng import SeedLike, resolve_rng


@dataclass
class ReinforceConfig:
    """Hyper-parameters of the REINFORCE loop.

    The paper trains 300 epochs at lr 1e-4 with batch 128 on a GPU;
    defaults here are CPU-scaled but expose the same knobs.
    """

    batch_size: int = 32
    learning_rate: float = 1e-4
    baseline: str = "rollout"  # "rollout" | "batch_mean" | "none"
    budget_slack: Optional[float] = None  # None -> minimal-budget rho
    entropy_bonus: float = 0.0  # weight of the exploration entropy bonus
    grad_clip_norm: float = 2.0
    baseline_refresh_interval: int = 10
    eval_fraction: float = 0.1
    seed: int = 0


@dataclass
class TrainingMetrics:
    """One optimization step's diagnostics."""

    step: int
    mean_cost: float
    mean_baseline: float
    mean_reward: float
    grad_norm: float
    mean_entropy: float = 0.0


#: Pluggable per-sample cost: ``cost_fn(example, order_names) -> float``.
CostFn = Callable[[LabeledExample, List[str]], float]


class ReinforceTrainer:
    """Policy-gradient trainer over a labeled synthetic dataset.

    ``cost_fn`` replaces the default Eq. 3 cosine cost with any
    per-sample cost over the decoded node order (lower is better; keep
    it roughly in ``[0, 1]`` so the configured learning rates transfer).
    The online-adaptation loop uses this to fine-tune directly on the
    pipeline-latency reward; the rollout baseline, evaluation split and
    entropy bonus all apply unchanged.
    """

    def __init__(
        self,
        policy: PointerNetworkPolicy,
        examples: Sequence[LabeledExample],
        config: ReinforceConfig = ReinforceConfig(),
        cost_fn: Optional[CostFn] = None,
    ) -> None:
        if not examples:
            raise TrainingError("training requires a non-empty dataset")
        if config.baseline not in ("rollout", "batch_mean", "none"):
            raise TrainingError(f"unknown baseline kind {config.baseline!r}")
        if cost_fn is not None and not callable(cost_fn):
            raise TrainingError("cost_fn must be callable")
        self.policy = policy
        self.config = config
        self.cost_fn = cost_fn
        self._rng = resolve_rng(config.seed)
        # Eval and train splits must stay disjoint: cap the eval share at
        # len - 1 so a large ``eval_fraction`` (or a tiny dataset) never
        # silently evaluates the rollout baseline on its own training
        # data.  A singleton dataset trains on its one example and skips
        # held-out evaluation (``_evaluate`` returns 0.0).
        split = int(len(examples) * config.eval_fraction)
        if config.eval_fraction > 0.0:
            split = max(1, split)
        split = min(split, len(examples) - 1)
        self.eval_examples = list(examples[:split])
        self.train_examples = list(examples[split:])
        self.optimizer = Adam(
            policy, lr=config.learning_rate, grad_clip_norm=config.grad_clip_norm
        )
        self._baseline_policy: Optional[PointerNetworkPolicy] = None
        self._baseline_eval_cost = float("inf")
        if config.baseline == "rollout":
            self._baseline_policy = self._clone_policy()
            self._baseline_eval_cost = self._evaluate(self._baseline_policy)
        self._step = 0
        self.history: List[TrainingMetrics] = []

    # ------------------------------------------------------------------
    def _clone_policy(self) -> PointerNetworkPolicy:
        clone = PointerNetworkPolicy(
            feature_dim=self.policy.feature_dim,
            hidden_size=self.policy.hidden_size,
            logit_clip=self.policy.logit_clip,
        )
        clone.load_state_dict(self.policy.state_dict())
        return clone

    def _costs(
        self,
        examples: Sequence[LabeledExample],
        actions: np.ndarray,
    ) -> np.ndarray:
        """Per-row cost: ``cost_fn`` when given, else ``1 - R`` (Eq. 3)."""
        if self.cost_fn is not None:
            return np.array(
                [
                    float(
                        self.cost_fn(
                            example, example.queue.names_for(actions[b])
                        )
                    )
                    for b, example in enumerate(examples)
                ]
            )
        costs = np.zeros(len(examples))
        for b, example in enumerate(examples):
            order = example.queue.names_for(actions[b])
            packed = pack_sequence(
                example.graph,
                order,
                example.num_stages,
                budget_slack=self.config.budget_slack,
            )
            gamma_order = example.queue.names_for(example.gamma_indices)
            packed_gamma = pack_sequence(
                example.graph,
                gamma_order,
                example.num_stages,
                budget_slack=self.config.budget_slack,
            )
            names = example.queue.node_names
            reward = stage_cosine_reward(
                [packed.assignment[n] for n in names],
                [packed_gamma.assignment[n] for n in names],
            )
            costs[b] = 1.0 - reward
        return costs

    def _evaluate(self, policy: PointerNetworkPolicy) -> float:
        """Mean greedy cost on the held-out split."""
        total = 0.0
        count = 0
        for chunk, features, _ in batch_examples(
            self.eval_examples, self.config.batch_size, shuffle=False
        ):
            rollout = policy.greedy_decode(
                features, precedence=stack_precedence(chunk)
            )
            total += float(self._costs(chunk, rollout.actions).sum())
            count += len(chunk)
        return total / max(1, count)

    # ------------------------------------------------------------------
    def train_step(
        self, chunk: Sequence[LabeledExample], features: np.ndarray
    ) -> TrainingMetrics:
        """One sampled batch + policy-gradient update."""
        config = self.config
        precedence = stack_precedence(chunk)
        rollout = self.policy.forward(
            features, mode="sample", rng=self._rng, precedence=precedence
        )
        costs = self._costs(chunk, rollout.actions)
        if config.baseline == "rollout" and self._baseline_policy is not None:
            greedy = self._baseline_policy.greedy_decode(
                features, precedence=precedence
            )
            baselines = self._costs(chunk, greedy.actions)
        elif config.baseline == "batch_mean":
            baselines = np.full_like(costs, costs.mean())
        else:
            baselines = np.zeros_like(costs)
        coeff = (costs - baselines) / len(chunk)
        entropy_coeff = None
        if config.entropy_bonus:
            # Loss gains -beta * H per sample (normalized like the policy
            # term), so a positive bonus rewards exploration; the exact
            # entropy gradient flows through PointerNetworkPolicy.backward.
            entropy_coeff = np.full(
                len(chunk), config.entropy_bonus / len(chunk)
            )
        self.policy.zero_grad()
        self.policy.backward(rollout, coeff, entropy_coeff=entropy_coeff)
        grad_norm = self.optimizer.step()

        self._step += 1
        if (
            config.baseline == "rollout"
            and self._step % config.baseline_refresh_interval == 0
        ):
            current_cost = self._evaluate(self.policy)
            if current_cost < self._baseline_eval_cost:
                self._baseline_policy = self._clone_policy()
                self._baseline_eval_cost = current_cost
        metrics = TrainingMetrics(
            step=self._step,
            mean_cost=float(costs.mean()),
            mean_baseline=float(baselines.mean()),
            mean_reward=float(1.0 - costs.mean()),
            grad_norm=grad_norm,
            mean_entropy=float(rollout.entropy.mean()),
        )
        self.history.append(metrics)
        return metrics

    def train(self, num_steps: int) -> List[TrainingMetrics]:
        """Run ``num_steps`` batches (cycling the dataset as needed)."""
        if num_steps < 1:
            raise TrainingError("num_steps must be positive")
        done = 0
        while done < num_steps:
            for chunk, features, _ in batch_examples(
                self.train_examples, self.config.batch_size, rng=self._rng
            ):
                self.train_step(chunk, features)
                done += 1
                if done >= num_steps:
                    break
        return self.history
