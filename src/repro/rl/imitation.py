"""Supervised imitation (teacher forcing) of the exact scheduler.

Cross-entropy on the exact ``gamma`` sequences.  The paper trains with
pure REINFORCE; teacher forcing optimizes a closely related objective
(both push probability mass onto the teacher's pick order) and converges
orders of magnitude faster on CPUs, so this repo uses it to *warm-start*
the policy before REINFORCE fine-tuning (the README's "Pretrained
checkpoints" section states the recipe, and the ablation bench compares
the two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.datasets.synthetic import LabeledExample, batch_examples, stack_precedence
from repro.errors import TrainingError
from repro.nn.adam import Adam
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.utils.rng import resolve_rng


@dataclass
class ImitationConfig:
    """Hyper-parameters of the teacher-forcing loop."""

    batch_size: int = 32
    learning_rate: float = 1e-3
    grad_clip_norm: float = 2.0
    seed: int = 0


@dataclass
class ImitationMetrics:
    """One optimization step's diagnostics."""

    step: int
    loss: float
    token_accuracy: float
    grad_norm: float


class ImitationTrainer:
    """Teacher-forced cross-entropy trainer."""

    def __init__(
        self,
        policy: PointerNetworkPolicy,
        examples: Sequence[LabeledExample],
        config: ImitationConfig = ImitationConfig(),
    ) -> None:
        if not examples:
            raise TrainingError("training requires a non-empty dataset")
        self.policy = policy
        self.examples = list(examples)
        self.config = config
        self._rng = resolve_rng(config.seed)
        self.optimizer = Adam(
            policy, lr=config.learning_rate, grad_clip_norm=config.grad_clip_norm
        )
        self._step = 0
        self.history: List[ImitationMetrics] = []

    def train_step(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        precedence: np.ndarray = None,
    ) -> ImitationMetrics:
        """One teacher-forced batch: loss = mean ``-log p(gamma)``."""
        batch = features.shape[0]
        rollout = self.policy.forward(
            features, mode="teacher", target=targets, precedence=precedence
        )
        loss = float(np.mean(-rollout.log_prob))
        # Token accuracy via the step-wise argmax against the teacher.
        correct = 0
        total = 0
        for i, step in enumerate(rollout.steps):
            predicted = np.argmax(
                np.where(step.mask, step.probs, -1.0), axis=1
            )
            correct += int(np.sum(predicted == targets[:, i]))
            total += batch
        self.policy.zero_grad()
        self.policy.backward(rollout, np.full(batch, 1.0 / batch))
        grad_norm = self.optimizer.step()
        self._step += 1
        metrics = ImitationMetrics(
            step=self._step,
            loss=loss,
            token_accuracy=correct / max(1, total),
            grad_norm=grad_norm,
        )
        self.history.append(metrics)
        return metrics

    def train(self, num_steps: int) -> List[ImitationMetrics]:
        """Run ``num_steps`` teacher-forced batches (cycling the data)."""
        if num_steps < 1:
            raise TrainingError("num_steps must be positive")
        done = 0
        while done < num_steps:
            for chunk, features, targets in batch_examples(
                self.examples, self.config.batch_size, rng=self._rng
            ):
                self.train_step(features, targets, stack_precedence(chunk))
                done += 1
                if done >= num_steps:
                    break
        return self.history
