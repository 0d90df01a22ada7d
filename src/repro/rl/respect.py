"""The end-to-end RESPECT scheduler.

Wraps a trained pointer-network policy into the same scheduler interface
as every baseline: embed the graph (Step 2 of Fig. 1a), greedily decode a
node sequence (Step 3), pack it into stages with ``rho`` and apply the
deterministic post-inference processing (Step 4).  The measured
``solve_time`` covers this whole pipeline — it is the quantity Fig. 3
compares against the compiler and the ILP.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from typing import Callable, ContextManager, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.embedding.features import EmbeddingConfig
from repro.embedding.queue import EncoderQueue, build_encoder_queue, pad_queues
from repro.errors import SchedulingError
from repro.graphs.dag import ComputationalGraph
from repro.rl.checkpoints import (
    DEFAULT_CHECKPOINT,
    PRETRAINED_DIR,
    ensure_pretrained,
    load_checkpoint,
    save_checkpoint,
)
from repro.rl.ptrnet import PointerNetworkPolicy
from repro.scheduling.postprocess import postprocess_schedule
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.scheduling.sequence import normalize_stage_counts, pack_sequence
from repro.utils.timing import Timer


def save_policy(policy: PointerNetworkPolicy, directory, name: str) -> None:
    """Persist ``policy`` as ``<dir>/<name>.npz`` + ``<name>.json``.

    Thin wrapper over :func:`repro.rl.checkpoints.save_checkpoint`, which
    also writes versioned metadata into the JSON sidecar.
    """
    save_checkpoint(policy, directory, name)


def load_policy(directory, name: str) -> PointerNetworkPolicy:
    """Load a checkpoint written by :func:`save_policy`.

    Delegates to :func:`repro.rl.checkpoints.load_checkpoint`: the npz
    keys and shapes are validated against the JSON sidecar, so corrupt
    or mismatched artifacts raise :class:`CheckpointError` with a clear
    message instead of a deep numpy error.
    """
    return load_checkpoint(directory, name)


def load_pretrained_policy(name: str = DEFAULT_CHECKPOINT) -> PointerNetworkPolicy:
    """Load a pretrained checkpoint, training it on first use if missing.

    The repository ships ``respect_small`` — trained with the paper's
    synthetic-only recipe at CPU scale — under ``repro/rl/pretrained``.
    When the named artifact is absent (an unusual checkout, or a name
    that is registered but not shipped), the lookup falls back to the
    user cache and finally to *deterministic retraining* from the name's
    registered recipe via :func:`repro.rl.checkpoints.ensure_pretrained`;
    the regenerated artifact is cached so the cost is paid once.  Use
    ``scripts/regenerate_checkpoints.py`` to rebuild the shipped files,
    or ``examples/train_respect.py`` to scale the recipe up.
    """
    return ensure_pretrained(name)


class RespectScheduler:
    """RL-based scheduler: embedding -> PtrNet -> ``rho`` -> post-processing.

    Parameters
    ----------
    policy:
        A trained :class:`PointerNetworkPolicy`; when omitted the shipped
        pretrained checkpoint is loaded (regenerated deterministically on
        first use if the artifact is missing — see
        :func:`repro.rl.checkpoints.ensure_pretrained`).
    embedding_config:
        Must match the configuration the policy was trained with (the
        feature dimension is validated).
    budget_slack:
        ``rho`` packing budget multiplier; ``None`` (default) lets the
        packer binary-search the minimal feasible budget for the decoded
        order.
    enforce_siblings:
        Apply the Edge TPU sibling-stage rule during post-processing.
    constrain_topological:
        Restrict decoding to schedulable nodes (all parents picked).
        Decoded orders are then valid topological orders, so the
        post-inference dependency repair is a no-op; disable to study
        the unconstrained decoder (the post-processing ablation).

    Greedy inference runs :meth:`PointerNetworkPolicy.greedy_decode`,
    the rollout of ``forward(mode="greedy")`` restructured for speed.
    Its actions and ``log_prob`` are bit-identical to ``forward``'s only
    at the widths its tests pin (``hidden_size`` 6, and the shipped
    checkpoint's 64 as a float32 clone) and on BLAS kernels that round
    the hoisted projections alike; on OpenBLAS's AVX2 kernels
    (``OPENBLAS_CORETYPE=Haswell`` or ``Zen``) batched ``log_prob`` can
    move in the last bits (see the ``greedy_decode`` docstring).
    """

    method_name = "respect"

    def __init__(
        self,
        policy: Optional[PointerNetworkPolicy] = None,
        embedding_config: Optional[EmbeddingConfig] = None,
        budget_slack: Optional[float] = None,
        enforce_siblings: bool = False,
        constrain_topological: bool = True,
    ) -> None:
        if embedding_config is None:
            embedding_config = EmbeddingConfig()
        self.policy = policy if policy is not None else ensure_pretrained()
        if self.policy.feature_dim != embedding_config.feature_dim:
            raise SchedulingError(
                f"policy expects feature dim {self.policy.feature_dim} but the "
                f"embedding config produces {embedding_config.feature_dim}"
            )
        # Inference-only float32 clone: ~2x faster greedy decoding with no
        # effect on the (float64) training policy the caller handed in.
        self._inference_policy = PointerNetworkPolicy(
            feature_dim=self.policy.feature_dim,
            hidden_size=self.policy.hidden_size,
            logit_clip=self.policy.logit_clip,
        )
        self._inference_policy.load_state_dict(self.policy.state_dict())
        self._inference_policy.cast(np.float32)
        self.embedding_config = embedding_config
        self.budget_slack = budget_slack
        self.enforce_siblings = enforce_siblings
        self.constrain_topological = constrain_topological
        self._options_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def inference_policy(self) -> PointerNetworkPolicy:
        """The frozen float32 clone greedy decoding actually runs on.

        This — not the live ``policy`` the caller handed in, which may
        keep training afterwards — is what :meth:`options_fingerprint`
        hashes and what decode worker processes must load to stay
        bit-identical with the in-process path.
        """
        return self._inference_policy

    def decode_config(self) -> dict:
        """Everything besides the weights a worker needs to rebuild this
        scheduler's decode behavior (see :mod:`repro.service.workers`).

        The embedding configuration is expanded field by field so the
        dict is plain-JSON serializable into a checkpoint sidecar.
        """
        from dataclasses import asdict

        return {
            "embedding": asdict(self.embedding_config),
            "budget_slack": self.budget_slack,
            "enforce_siblings": self.enforce_siblings,
            "constrain_topological": self.constrain_topological,
            "options_fingerprint": self.options_fingerprint(),
        }

    # ------------------------------------------------------------------
    def options_fingerprint(self) -> str:
        """Stable digest of everything besides the graph that shapes output.

        Covers the packer/post-processing options, the (frozen) embedding
        configuration and the *policy weights*, so the scheduling service
        (:class:`repro.service.SchedulingService`) can safely share one
        :class:`~repro.service.ScheduleCache` across scheduler instances:
        two ``RespectScheduler``\\ s collide on a cache key only when they
        are guaranteed to produce bit-identical schedules.  Computed once
        and memoized (hashing the weights is O(model size)).
        """
        if self._options_fingerprint is None:
            hasher = hashlib.sha256()
            for part in (
                "respect-options-v1",
                self.method_name,
                repr(self.budget_slack),
                repr(self.enforce_siblings),
                repr(self.constrain_topological),
                repr(self.embedding_config),
                # Architecture + logit clipping shape the greedy argmax
                # beyond what the weight arrays alone capture.
                repr(sorted(self._inference_policy.config_dict().items())),
            ):
                hasher.update(part.encode("utf-8"))
                hasher.update(b"\x00")
            # Hash the frozen float32 inference clone — the weights the
            # decode actually uses — not the caller's live training
            # policy, which may drift after construction.
            state = self._inference_policy.state_dict()
            for key in sorted(state):
                array = np.ascontiguousarray(state[key])
                hasher.update(key.encode("utf-8"))
                hasher.update(str(array.dtype).encode("utf-8"))
                hasher.update(repr(array.shape).encode("utf-8"))
                hasher.update(array.tobytes())
            self._options_fingerprint = hasher.hexdigest()
        return self._options_fingerprint

    # ------------------------------------------------------------------
    def schedule(self, graph: ComputationalGraph, num_stages: int) -> ScheduleResult:
        """Produce a schedule with one greedy decode (polynomial time)."""
        return self._schedule_decoded([graph], num_stages, self._decode_batch)[0]

    def schedule_batch(
        self,
        graphs: Sequence[ComputationalGraph],
        num_stages: Union[int, Sequence[int]],
    ) -> List[ScheduleResult]:
        """Schedule many graphs with one vectorized greedy decode.

        Variable-size encoder queues are padded into a single
        ``[B, N, F]`` tensor and decoded in one masked
        :meth:`PointerNetworkPolicy.greedy_decode` pass, then packed and
        post-processed per graph.  The resulting schedules are identical
        to sequential :meth:`schedule` calls — batching only amortizes
        the network cost, which is what makes repeated inference over
        many DAGs fast.  ``extras["log_prob"]`` is not: a padded row
        takes the same actions as its solo decode, but its
        log-probability can differ in the last bits (~1e-7) and depends
        on the batch mates.

        ``num_stages`` is either one stage count shared by every graph or
        a per-graph sequence.  Each returned result reports the amortized
        ``solve_time`` (batch wall-clock / B) and carries the batch size
        and total in ``extras``.
        """
        return self._schedule_decoded(
            graphs, num_stages, self._decode_batch, amortized_over="batch"
        )

    def schedule_stage_sweep(
        self, graph: ComputationalGraph, stage_counts: Sequence[int]
    ) -> List[ScheduleResult]:
        """Schedule one graph under several stage counts with one decode.

        The greedy decode is stage-count independent — only the ``rho``
        packing consumes ``num_stages`` — so a sweep (the Fig. 3/4/5
        evaluation pattern) pays the network cost exactly once and packs
        per stage count.  Each result reports the amortized
        ``solve_time`` (sweep wall-clock / len(stage_counts)); the true
        total is in ``extras["sweep_seconds"]``.
        """
        counts = list(stage_counts)

        def decode_once(graphs):
            orders, log_probs = self._decode_batch(graphs[:1])
            return orders * len(graphs), log_probs * len(graphs)

        return self._schedule_decoded(
            [graph] * len(counts), counts, decode_once, amortized_over="sweep"
        )

    def decode_orders(
        self, graphs: Sequence[ComputationalGraph]
    ) -> List[List[str]]:
        """Greedily decode a node order for every graph in one batch.

        The decode is stage-count independent (only the ``rho`` packing
        consumes ``num_stages``), so callers that re-pack one order under
        several stage counts or budgets need just one call.
        """
        graphs = list(graphs)
        if not graphs:
            return []
        return self._decode_batch(graphs)[0]

    # ------------------------------------------------------------------
    def _decode_batch(
        self, graphs: Sequence[ComputationalGraph]
    ) -> Tuple[List[List[str]], List[float]]:
        """Embed ``graphs`` and run :meth:`_decode_queues` over them."""
        return self._decode_queues(
            [build_encoder_queue(graph, self.embedding_config) for graph in graphs]
        )

    def _decode_queues(
        self, queues: Sequence[EncoderQueue]
    ) -> Tuple[List[List[str]], List[float]]:
        """One padded greedy decode over already-embedded ``queues``.

        The one decode: in-process calls reach it through
        :meth:`_decode_batch`, decode workers with the queues a request
        carried.  Returns every queue's decoded node order and its
        log-probability.
        """
        features, precedence, lengths = pad_queues(queues)
        rollout = self._inference_policy.greedy_decode(
            features,
            precedence=precedence if self.constrain_topological else None,
            lengths=lengths,
        )
        orders = [
            queue.names_for(rollout.actions[b, : lengths[b]])
            for b, queue in enumerate(queues)
        ]
        return orders, [float(rollout.log_prob[b]) for b in range(len(queues))]

    def _schedule_decoded(
        self,
        graphs: Sequence[ComputationalGraph],
        num_stages: Union[int, Sequence[int]],
        decode: Callable[
            [List[ComputationalGraph]], Tuple[Sequence[List[str]], Sequence[float]]
        ],
        amortized_over: Optional[str] = None,
        postprocess_span: Optional[Callable[[int], ContextManager]] = None,
        **extras: object,
    ) -> List[ScheduleResult]:
        """Decode ``graphs``, pack and repair every order, wrap the results.

        The decode-to-schedule step of every entry point, in-process or
        through a decode worker (``decode`` maps the graphs to their node
        orders and log-probs).  Result ``i`` packs order ``i`` under stage
        count ``i`` with ``rho`` and repairs it; a schedule with no
        dependency violation and no sibling rule to apply is served as
        packed.  ``solve_time`` is the wall clock over decode and packing,
        split evenly over the results.  ``amortized_over`` (``"batch"`` or
        ``"sweep"``) adds ``<name>_size`` and ``<name>_seconds`` extras;
        ``extras`` are added to every result as given.
        ``postprocess_span(len(graphs))`` opens a span around packing.
        """
        graphs = list(graphs)
        stage_counts = normalize_stage_counts(num_stages, len(graphs))
        if not graphs:
            return []
        packed: List[Tuple[Schedule, int]] = []
        with Timer() as timer:
            orders, log_probs = decode(graphs)
            span = (
                nullcontext()
                if postprocess_span is None
                else postprocess_span(len(graphs))
            )
            with span:
                for graph, order, count in zip(graphs, orders, stage_counts):
                    raw = pack_sequence(
                        graph, order, count, budget_slack=self.budget_slack
                    )
                    repairs = len(raw.dependency_violations())
                    if repairs or self.enforce_siblings:
                        raw = postprocess_schedule(
                            raw, enforce_siblings=self.enforce_siblings
                        )
                    packed.append((raw, repairs))
        if amortized_over is not None:
            extras = {
                f"{amortized_over}_size": len(graphs),
                f"{amortized_over}_seconds": timer.elapsed,
                **extras,
            }
        return [
            ScheduleResult(
                schedule=schedule,
                solve_time=timer.elapsed / len(graphs),
                method=self.method_name,
                status="inference",
                extras={
                    "repaired_violations": repairs,
                    "log_prob": log_prob,
                    **extras,
                },
            )
            for (schedule, repairs), log_prob in zip(packed, log_probs)
        ]
