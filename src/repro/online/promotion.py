"""Champion/challenger shadow evaluation, promotion and hot-swap.

A fine-tuned challenger never reaches live traffic on faith: it is first
*shadow-evaluated* against the serving champion on held-out drifted
graphs (both policies schedule the identical set; rewards come from the
same :class:`~repro.online.rewards.PipelineLatencyReward`).  Promotion
requires the challenger's mean reward to beat the champion's by a
configurable margin **and** clear a paired one-sided z-test — a noisy
win on a handful of graphs does not roll the fleet.

A promoted challenger is persisted through the checkpoint lifecycle
(:mod:`repro.rl.checkpoints`) with provenance recording the drift event
and the shadow-evaluation numbers, then hot-swapped into the
:class:`~repro.service.SchedulingService` via
:meth:`~repro.service.SchedulingService.swap_scheduler`; the stale cache
entries of the retired champion are evicted with
:meth:`~repro.service.SchedulingService.invalidate_options`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ServiceError
from repro.graphs.dag import ComputationalGraph
from repro.online.rewards import PipelineLatencyReward, default_reward_model
from repro.rl.checkpoints import checkpoint_metadata, save_checkpoint
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.respect import RespectScheduler
from repro.scheduling.sequence import normalize_stage_counts
from repro.service import SchedulingService


def scheduler_with_policy(
    template: RespectScheduler, policy: PointerNetworkPolicy
) -> RespectScheduler:
    """A scheduler configured exactly like ``template`` but for ``policy``.

    Keeps every non-policy option (embedding config, packing slack,
    post-processing flags) identical, so champion and challenger differ
    *only* in weights — the property the shadow evaluation and the
    swap-atomicity guarantee both rely on.
    """
    return RespectScheduler(
        policy=policy,
        embedding_config=template.embedding_config,
        budget_slack=template.budget_slack,
        enforce_siblings=template.enforce_siblings,
        constrain_topological=template.constrain_topological,
    )


@dataclass(frozen=True)
class ShadowEvaluation:
    """Paired champion-vs-challenger comparison on held-out graphs."""

    champion_rewards: List[float]
    challenger_rewards: List[float]
    min_improvement: float
    z_threshold: float

    @property
    def size(self) -> int:
        return len(self.champion_rewards)

    @property
    def champion_mean(self) -> float:
        return (
            sum(self.champion_rewards) / self.size if self.size else 0.0
        )

    @property
    def challenger_mean(self) -> float:
        return (
            sum(self.challenger_rewards) / self.size if self.size else 0.0
        )

    @property
    def mean_improvement(self) -> float:
        return self.challenger_mean - self.champion_mean

    @property
    def z_score(self) -> float:
        """Paired one-sided z statistic of the per-graph improvements."""
        if self.size < 2:
            return 0.0
        diffs = [
            challenger - champion
            for champion, challenger in zip(
                self.champion_rewards, self.challenger_rewards
            )
        ]
        mean = sum(diffs) / len(diffs)
        var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
        if var <= 0.0:
            return math.inf if mean > 0 else 0.0
        return mean / math.sqrt(var / len(diffs))

    @property
    def promote(self) -> bool:
        """True when the challenger is statistically better."""
        return (
            self.size >= 2
            and self.mean_improvement > self.min_improvement
            and self.z_score > self.z_threshold
        )

    def summary(self) -> Dict[str, float]:
        """JSON-friendly view (stored in promotion provenance)."""
        return {
            "size": self.size,
            "champion_mean": self.champion_mean,
            "challenger_mean": self.challenger_mean,
            "mean_improvement": self.mean_improvement,
            "z_score": self.z_score,
            "min_improvement": self.min_improvement,
            "z_threshold": self.z_threshold,
            "promote": self.promote,
        }


def evaluate_challenger(
    champion: RespectScheduler,
    challenger: RespectScheduler,
    graphs: Sequence[ComputationalGraph],
    num_stages: Union[int, Sequence[int]],
    reward_model: Optional[PipelineLatencyReward] = None,
    min_improvement: float = 0.0,
    z_threshold: float = 1.64,
) -> ShadowEvaluation:
    """Score both schedulers on the same graphs, pairwise.

    ``z_threshold=1.64`` is the one-sided 95% gate; ``min_improvement``
    additionally demands a material effect size (promotions should pay
    for their cache invalidation).
    """
    graphs = list(graphs)
    if not graphs:
        raise ServiceError("shadow evaluation needs at least one graph")
    stage_counts = normalize_stage_counts(num_stages, len(graphs))
    reward_model = reward_model or default_reward_model()
    champion_results = champion.schedule_batch(graphs, stage_counts)
    challenger_results = challenger.schedule_batch(graphs, stage_counts)
    return ShadowEvaluation(
        champion_rewards=[
            reward_model.reward(graph, result.schedule)
            for graph, result in zip(graphs, champion_results)
        ],
        challenger_rewards=[
            reward_model.reward(graph, result.schedule)
            for graph, result in zip(graphs, challenger_results)
        ],
        min_improvement=min_improvement,
        z_threshold=z_threshold,
    )


@dataclass(frozen=True)
class PromotionRecord:
    """Outcome of one promotion (checkpoint + live swap)."""

    checkpoint_name: str
    checkpoint_path: Optional[Path]
    evaluation: ShadowEvaluation
    #: Options fingerprint of the retired champion.
    retired_options_key: str
    #: Stale cache entries evicted for the retired champion.
    invalidated_entries: int


def promote_challenger(
    service: SchedulingService,
    challenger: RespectScheduler,
    evaluation: ShadowEvaluation,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_name: str = "respect_online",
    drift_event: Optional[object] = None,
    invalidate_cache: bool = True,
) -> PromotionRecord:
    """Persist the challenger and hot-swap it into ``service``.

    The checkpoint's JSON sidecar gains an ``online_adaptation`` block
    recording the drift event that triggered fine-tuning, the shadow
    evaluation, and the options fingerprint of the champion it replaced
    — the audit trail for "why is the fleet running these weights".
    The swap is atomic per serving shard (see
    :meth:`~repro.service.SchedulingService.swap_scheduler`: no request
    is ever served a torn mix of two policies, and requests submitted
    after the swap returns run the challenger on every shard).  With
    ``invalidate_cache=True`` the retired champion's cache entries are
    evicted eagerly from every shard's store — and when the service
    mounts a persistent schedule store (``stores=`` / ``store_dir=``),
    the eviction reaches **every tier**: the store
    appends durable tombstones and its index is snapshotted here, so a
    process restarted over the same store directory can never serve a
    schedule solved by the retired champion.
    """
    from repro.service.workers import unwrap_scheduler

    retiring_key = None
    champion = unwrap_scheduler(service.scheduler)
    if isinstance(champion, RespectScheduler):
        retiring_key = champion.options_fingerprint()
    path: Optional[Path] = None
    if checkpoint_dir is not None:
        meta = checkpoint_metadata(
            challenger.policy,
            checkpoint_name,
            source="repro.online.promotion.promote_challenger",
        )
        meta["online_adaptation"] = {
            "drift_event": (
                drift_event.summary()
                if hasattr(drift_event, "summary")
                else drift_event
            ),
            "shadow_evaluation": evaluation.summary(),
            "replaced_options_fingerprint": retiring_key,
        }
        path = save_checkpoint(
            challenger.policy, checkpoint_dir, checkpoint_name, metadata=meta
        )
    old_key = service.swap_scheduler(challenger)
    invalidated = (
        service.invalidate_options(old_key) if invalidate_cache else 0
    )
    if invalidate_cache and service.schedule_store is not None:
        # The tombstones the invalidation appended are already flushed;
        # the snapshot additionally fsyncs them and spares the next boot
        # a segment replay — promotion is a natural durability point.
        service.snapshot()
    return PromotionRecord(
        checkpoint_name=checkpoint_name,
        checkpoint_path=path,
        evaluation=evaluation,
        retired_options_key=old_key,
        invalidated_entries=invalidated,
    )


__all__ = [
    "PromotionRecord",
    "ShadowEvaluation",
    "evaluate_challenger",
    "promote_challenger",
    "scheduler_with_policy",
]
