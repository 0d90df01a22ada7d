"""The closed adaptation loop: observe -> detect -> fine-tune -> promote.

:class:`AdaptationLoop` ties the online subsystem together around a live
:class:`~repro.service.SchedulingService`:

1. **Observe** — a serve listener records every answered request into
   the :class:`~repro.online.ExperienceBuffer` (with its
   pipeline-latency reward) and feeds the
   :class:`~repro.online.DriftDetector`.
2. **Detect** — when the detector's Page-Hinkley test trips, the loop
   collects the drifted slice: recent buffered graphs (deduplicated by
   structural fingerprint) plus, when a ``graph_source`` is available,
   freshly sampled drifted graphs.
3. **Fine-tune** — drifted training graphs are *self-labeled* by a
   latency teacher (seeded local search over decode orders, maximizing
   the same reward the buffer records, linearized stage-major so labels
   share canonical structure); a challenger copy of the champion policy
   is warm-started with teacher-forced imitation and polished with the
   existing REINFORCE trainer using the pipeline-latency cost.
4. **Promote** — the challenger shadow-plays the champion on held-out
   drifted graphs; only a statistically better mean reward promotes it:
   the weights are persisted through :mod:`repro.rl.checkpoints` (with
   the drift event in their provenance) and hot-swapped into the service
   without downtime.

The loop runs synchronously (call :meth:`run_pending` from the serving
thread — deterministic, what experiments and tests use) or in the
background (:meth:`start` / :meth:`stop` — a daemon thread adapts while
the service keeps answering from the frozen champion).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.synthetic import LabeledExample
from repro.embedding.features import EmbeddingConfig
from repro.embedding.queue import build_encoder_queue
from repro.errors import ServiceError, TrainingError
from repro.graphs.dag import ComputationalGraph
from repro.obs.telemetry import Telemetry
from repro.online.drift import DriftDetector, DriftEvent, GraphObservation
from repro.online.experience import ExperienceBuffer, ExperienceRecord
from repro.online.promotion import (
    PromotionRecord,
    ShadowEvaluation,
    evaluate_challenger,
    promote_challenger,
    scheduler_with_policy,
)
from repro.online.rewards import PipelineLatencyReward, default_reward_model
from repro.rl.imitation import ImitationConfig, ImitationTrainer
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.rl.respect import RespectScheduler
from repro.scheduling.sequence import pack_sequence
from repro.service import SchedulingService

#: Supplies ``count`` freshly sampled graphs from the live distribution.
GraphSource = Callable[[int], Sequence[ComputationalGraph]]


# ----------------------------------------------------------------------
# latency teacher (self-labeling)
# ----------------------------------------------------------------------
def latency_teacher_order(
    graph: ComputationalGraph,
    num_stages: int,
    reward_model: PipelineLatencyReward,
    iters: int = 600,
    rng: Optional[np.random.Generator] = None,
    budget_slack: Optional[float] = None,
) -> Tuple[List[str], float]:
    """Self-label one graph: a decode order maximizing the served reward.

    Seeded local search over topological orders: repeatedly relocate a
    random node to a random position inside its dependency window (after
    its latest parent, before its earliest child), keeping moves that do
    not lower the packed schedule's pipeline-efficiency reward.  The
    search result is then *canonicalized* — linearized stage-major via
    :meth:`~repro.scheduling.schedule.Schedule.to_sequence` — so teacher
    orders share structure across graphs, which is what makes them
    imitable; the better of the two forms is returned with its reward.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    order = list(graph.topological_order())
    position = {name: i for i, name in enumerate(order)}
    parents = {name: graph.parents(name) for name in graph.node_names}
    children = {name: graph.children(name) for name in graph.node_names}

    def order_reward(candidate: Sequence[str]) -> float:
        return reward_model.order_reward(
            graph, candidate, num_stages, budget_slack=budget_slack
        )

    best = order_reward(order)
    for _ in range(max(0, iters)):
        index = int(rng.integers(0, len(order)))
        name = order[index]
        low = max((position[p] for p in parents[name]), default=-1) + 1
        high = min((position[c] for c in children[name]), default=len(order)) - 1
        if high <= low:
            continue
        target = int(rng.integers(low, high + 1))
        if target == index:
            continue
        candidate = order.copy()
        candidate.pop(index)
        candidate.insert(target, name)
        reward = order_reward(candidate)
        if reward >= best:
            best = reward
            order = candidate
            position = {n: i for i, n in enumerate(order)}
    canonical = pack_sequence(
        graph, order, num_stages, budget_slack=budget_slack
    ).to_sequence()
    canonical_reward = order_reward(canonical)
    if canonical_reward >= best:
        return list(canonical), canonical_reward
    return order, best


def teacher_example(
    graph: ComputationalGraph,
    num_stages: int,
    order: Sequence[str],
    embedding_config: EmbeddingConfig,
    budget_slack: Optional[float] = None,
) -> LabeledExample:
    """Wrap a self-labeled order as a trainer-consumable example."""
    queue = build_encoder_queue(graph, embedding_config)
    position = {name: i for i, name in enumerate(queue.node_names)}
    return LabeledExample(
        graph=graph,
        num_stages=num_stages,
        queue=queue,
        exact_schedule=pack_sequence(
            graph, order, num_stages, budget_slack=budget_slack
        ),
        gamma_names=list(order),
        gamma_indices=np.array([position[n] for n in order], dtype=int),
    )


# ----------------------------------------------------------------------
# configuration / reports
# ----------------------------------------------------------------------
@dataclass
class AdaptationConfig:
    """Knobs of one adaptation round.

    Defaults are sized for the CPU-scale end-to-end experiment (~1 min
    per adaptation); production-style deployments raise the counts the
    same way the training recipes do.
    """

    #: Newest buffered records considered drifted traffic.
    max_adaptation_graphs: int = 40
    #: Freshly sampled graphs added when a ``graph_source`` is available.
    fresh_graphs: int = 16
    #: Fraction of the drifted set held out for shadow evaluation.
    holdout_fraction: float = 0.25
    #: Minimum drifted graphs required to attempt an adaptation.
    min_graphs: int = 8
    #: Local-search iterations per self-labeled teacher order.
    teacher_search_iters: int = 600
    imitation_steps: int = 600
    imitation_learning_rate: float = 5e-3
    imitation_batch_size: int = 8
    #: REINFORCE polish on the pipeline-latency cost (0 disables).
    reinforce_steps: int = 20
    reinforce_learning_rate: float = 1e-4
    reinforce_batch_size: int = 8
    #: Promotion gate (see :func:`~repro.online.evaluate_challenger`).
    min_improvement: float = 0.0
    z_threshold: float = 1.64
    #: Where promoted checkpoints are persisted (None: swap only).
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_name: str = "respect_online"
    seed: int = 0


@dataclass(frozen=True)
class AdaptationReport:
    """Everything one drift event led to."""

    event: DriftEvent
    status: str  # "promoted" | "rejected" | "insufficient_data"
    drifted_graphs: int
    fresh_graphs: int
    teacher_mean_reward: float
    imitation_final_accuracy: float
    reinforce_steps: int
    evaluation: Optional[ShadowEvaluation]
    promotion: Optional[PromotionRecord]


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class AdaptationLoop:
    """Drift-aware continual learning around one scheduling service.

    Parameters
    ----------
    service:
        The live :class:`~repro.service.SchedulingService`, of any shard
        count (one listener observes every shard and one swap promotes
        on all of them); its scheduler must be a
        :class:`~repro.rl.respect.RespectScheduler` (the champion).
    buffer / detector:
        Experience store and drift detector; defaults are created when
        omitted.
    config:
        Adaptation knobs (:class:`AdaptationConfig`).
    reward_model:
        Pipeline-latency reward shared by recording, self-labeling,
        fine-tuning and shadow evaluation.
    graph_source:
        Optional ``source(count) -> graphs`` sampling *fresh* drifted
        traffic (e.g. the workload generator); buffered graphs alone are
        used without one.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  Drift events and
        adaptation outcomes are counted under a ``layer="online"``
        label; with tracing enabled, each adaptation round becomes a
        trace whose root span carries the drift/promotion details as
        span events.  Pass the *service's* facade to get the serving
        and adaptation series in one registry scrape.
    """

    def __init__(
        self,
        service: SchedulingService,
        buffer: Optional[ExperienceBuffer] = None,
        detector: Optional[DriftDetector] = None,
        config: Optional[AdaptationConfig] = None,
        reward_model: Optional[PipelineLatencyReward] = None,
        graph_source: Optional[GraphSource] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        from repro.service.workers import unwrap_scheduler

        if not isinstance(
            unwrap_scheduler(service.scheduler), RespectScheduler
        ):
            raise ServiceError(
                "AdaptationLoop requires the service to front a "
                f"RespectScheduler, got {type(service.scheduler).__name__}"
            )
        self.service = service
        self.config = config or AdaptationConfig()
        self.buffer = buffer if buffer is not None else ExperienceBuffer(
            capacity=max(128, self.config.max_adaptation_graphs * 4),
            seed=self.config.seed,
        )
        self.detector = detector if detector is not None else DriftDetector()
        self.reward_model = reward_model or default_reward_model()
        self.graph_source = graph_source
        self.reports: List[AdaptationReport] = []
        #: Exceptions swallowed by the background loop (newest last).
        self.errors: List[Exception] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: Optional[DriftEvent] = None
        self._adapting = False
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        self._attached = False
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._online = self.telemetry.child(layer="online")
        self._m_drift_events = self._online.counter(
            "respect_drift_events_total",
            help="Drift events raised by the detector",
        )
        self._m_promotions = self._online.counter(
            "respect_promotions_total",
            help="Challengers promoted (hot-swapped) into the service",
        )

    # ------------------------------------------------------------------
    # observation plumbing
    # ------------------------------------------------------------------
    def attach(self) -> "AdaptationLoop":
        """Register the serve listener on the service."""
        if not self._attached:
            self.service.add_serve_listener(self._on_serve)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.service.remove_serve_listener(self._on_serve)
            self._attached = False

    def _on_serve(self, graph, num_stages, result) -> None:
        reward = self.reward_model.reward(graph, result.schedule)
        observation = GraphObservation.from_graph(graph)
        with self._lock:
            self.buffer.record(
                graph,
                num_stages,
                result.schedule,
                reward,
                fingerprint=observation.fingerprint,
            )
            event = self.detector.update(observation)
            if event is not None:
                # Counted at detection — exactly once per event, whether
                # or not an adaptation is already in flight.
                self._m_drift_events.inc()
            if event is not None and self._pending is None and not self._adapting:
                self._pending = event
                self._wakeup.notify_all()

    @property
    def pending_event(self) -> Optional[DriftEvent]:
        with self._lock:
            return self._pending

    # ------------------------------------------------------------------
    # synchronous driving
    # ------------------------------------------------------------------
    def run_pending(self) -> Optional[AdaptationReport]:
        """Execute the pending adaptation, if any (deterministic path)."""
        with self._lock:
            event = self._pending
            if event is None or self._adapting:
                return None
            self._pending = None
            self._adapting = True
        # One trace per adaptation round; the drift details ride on the
        # root span as an event so a trace viewer shows what tripped it.
        span = (
            self.telemetry.start_trace(
                "adaptation", at_observation=event.at_observation
            )
            or None
        )
        if span is not None:
            span.add_event(
                "drift",
                statistic=float(event.statistic),
                score=float(event.score),
                novelty_rate=float(event.novelty_rate),
            )
        report: Optional[AdaptationReport] = None
        try:
            if span is not None:
                with span.activate():
                    report = self._adapt(event)
            else:
                report = self._adapt(event)
        finally:
            with self._lock:
                self._adapting = False
                if report is not None and report.status == "promoted":
                    # The serving policy changed: today's traffic is the
                    # new normal.
                    self.detector.rebaseline()
                else:
                    # Nothing was promoted — the workload is still
                    # drifted relative to the reference; re-arm so
                    # sustained drift retries with a larger sample.
                    self.detector.rearm()
            if report is not None:
                self._online.counter(
                    "respect_adaptations_total",
                    help="Completed adaptation rounds by outcome",
                    outcome=report.status,
                ).inc()
                if report.status == "promoted":
                    self._m_promotions.inc()
            if span is not None:
                if report is not None:
                    span.set_attr("status", report.status)
                    if report.promotion is not None:
                        span.add_event(
                            "promotion",
                            retired_options_key=(
                                report.promotion.retired_options_key[:12]
                                if report.promotion.retired_options_key
                                else ""
                            ),
                        )
                    span.end()
                else:
                    span.end(status="error")
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # background driving
    # ------------------------------------------------------------------
    def start(self) -> "AdaptationLoop":
        """Adapt on a daemon thread whenever drift is detected."""
        self.attach()
        if self._thread is None or not self._thread.is_alive():
            with self._lock:
                self._stop = False
            self._thread = threading.Thread(
                target=self._background_loop,
                name="online-adaptation-loop",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        with self._lock:
            self._stop = True
            self._wakeup.notify_all()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)
        self.detach()

    def _background_loop(self) -> None:
        while True:
            with self._lock:
                while self._pending is None and not self._stop:
                    self._wakeup.wait(timeout=0.25)
                if self._stop:
                    return
            try:
                self.run_pending()
            except Exception as exc:
                # A failed adaptation (full disk during checkpointing, a
                # faulty graph_source, ...) must not kill the daemon —
                # the service would silently stop adapting forever.
                # Record the error and keep watching; the detector was
                # re-armed by run_pending's cleanup, so sustained drift
                # triggers a fresh attempt.
                self.errors.append(exc)
                del self.errors[:-8]  # keep the newest few

    # ------------------------------------------------------------------
    # one adaptation round
    # ------------------------------------------------------------------
    def _drifted_records(self) -> List[ExperienceRecord]:
        records = self.buffer.recent(self.config.max_adaptation_graphs)
        unique: Dict[str, ExperienceRecord] = {}
        for record in records:  # keep the newest record per fingerprint
            unique[record.fingerprint] = record
        return list(unique.values())

    def _adapt(self, event: DriftEvent) -> AdaptationReport:
        from repro.service.workers import unwrap_scheduler

        config = self.config
        # The champion may be served through a decode-worker adapter;
        # fine-tuning needs the in-process scheduler behind it (its
        # policy weights and options — identical by the pool's
        # fingerprint contract).
        champion = unwrap_scheduler(self.service.scheduler)
        assert isinstance(champion, RespectScheduler)
        rng = np.random.default_rng([config.seed, event.at_observation])

        records = self._drifted_records()
        cases: List[Tuple[ComputationalGraph, int]] = [
            (record.graph, record.num_stages) for record in records
        ]
        fresh_count = 0
        if self.graph_source is not None and config.fresh_graphs > 0:
            stages = self._dominant_stage_count(records)
            fresh = list(self.graph_source(config.fresh_graphs))
            fresh_count = len(fresh)
            cases.extend((graph, stages) for graph in fresh)
        if len(cases) < config.min_graphs:
            return AdaptationReport(
                event=event,
                status="insufficient_data",
                drifted_graphs=len(records),
                fresh_graphs=fresh_count,
                teacher_mean_reward=0.0,
                imitation_final_accuracy=0.0,
                reinforce_steps=0,
                evaluation=None,
                promotion=None,
            )

        # Deterministic holdout split for the shadow evaluation.
        order = rng.permutation(len(cases))
        holdout_size = max(2, int(len(cases) * config.holdout_fraction))
        holdout = [cases[i] for i in order[:holdout_size]]
        training = [cases[i] for i in order[holdout_size:]]
        if not training:
            training, holdout = holdout, training

        # Self-label the training slice with the latency teacher.
        examples: List[LabeledExample] = []
        teacher_rewards: List[float] = []
        for graph, stages in training:
            teacher, reward = latency_teacher_order(
                graph,
                stages,
                self.reward_model,
                iters=config.teacher_search_iters,
                rng=rng,
                budget_slack=champion.budget_slack,
            )
            teacher_rewards.append(reward)
            examples.append(
                teacher_example(
                    graph,
                    stages,
                    teacher,
                    champion.embedding_config,
                    budget_slack=champion.budget_slack,
                )
            )

        challenger_policy = self._fine_tune(champion, examples, rng)
        challenger = scheduler_with_policy(champion, challenger_policy)

        evaluation = evaluate_challenger(
            champion,
            challenger,
            [graph for graph, _ in holdout],
            [stages for _, stages in holdout],
            reward_model=self.reward_model,
            min_improvement=config.min_improvement,
            z_threshold=config.z_threshold,
        )
        promotion: Optional[PromotionRecord] = None
        if evaluation.promote:
            promotion = promote_challenger(
                self.service,
                challenger,
                evaluation,
                checkpoint_dir=config.checkpoint_dir,
                checkpoint_name=config.checkpoint_name,
                drift_event=event,
            )
        return AdaptationReport(
            event=event,
            status="promoted" if promotion is not None else "rejected",
            drifted_graphs=len(records),
            fresh_graphs=fresh_count,
            teacher_mean_reward=(
                sum(teacher_rewards) / len(teacher_rewards)
                if teacher_rewards
                else 0.0
            ),
            imitation_final_accuracy=self._last_imitation_accuracy,
            reinforce_steps=config.reinforce_steps if examples else 0,
            evaluation=evaluation,
            promotion=promotion,
        )

    @staticmethod
    def _dominant_stage_count(records: Sequence[ExperienceRecord]) -> int:
        counts: Dict[int, int] = {}
        for record in records:
            counts[record.num_stages] = counts.get(record.num_stages, 0) + 1
        if not counts:
            return 4
        return max(sorted(counts), key=lambda stages: counts[stages])

    # ------------------------------------------------------------------
    def _fine_tune(
        self,
        champion: RespectScheduler,
        examples: List[LabeledExample],
        rng: np.random.Generator,
    ) -> PointerNetworkPolicy:
        """Imitation warm start + REINFORCE polish on a champion clone."""
        config = self.config
        challenger = PointerNetworkPolicy(
            feature_dim=champion.policy.feature_dim,
            hidden_size=champion.policy.hidden_size,
            logit_clip=champion.policy.logit_clip,
        )
        challenger.load_state_dict(champion.policy.state_dict())
        self._last_imitation_accuracy = 0.0
        if not examples:
            raise TrainingError("fine-tuning requires at least one example")
        seed = int(rng.integers(0, 2**31 - 1))
        if config.imitation_steps > 0:
            trainer = ImitationTrainer(
                challenger,
                examples,
                ImitationConfig(
                    batch_size=config.imitation_batch_size,
                    learning_rate=config.imitation_learning_rate,
                    seed=seed,
                ),
            )
            history = trainer.train(config.imitation_steps)
            self._last_imitation_accuracy = history[-1].token_accuracy
        if config.reinforce_steps > 0:
            reward_model = self.reward_model
            slack = champion.budget_slack

            def latency_cost(example: LabeledExample, order: List[str]) -> float:
                reward = reward_model.order_reward(
                    example.graph, order, example.num_stages, budget_slack=slack
                )
                return max(0.0, 1.0 - reward)

            reinforce = ReinforceTrainer(
                challenger,
                examples,
                ReinforceConfig(
                    batch_size=config.reinforce_batch_size,
                    learning_rate=config.reinforce_learning_rate,
                    seed=seed,
                ),
                cost_fn=latency_cost,
            )
            reinforce.train(config.reinforce_steps)
        return challenger

    _last_imitation_accuracy: float = 0.0


__all__ = [
    "AdaptationConfig",
    "AdaptationLoop",
    "AdaptationReport",
    "GraphSource",
    "latency_teacher_order",
    "teacher_example",
]
