"""Serving-path schedule reward from the pipeline latency model.

Online adaptation needs a per-serve quality signal that is cheap enough
to compute on live traffic (no exact solver in the loop) and meaningful
across workload families.  :class:`PipelineLatencyReward` provides it by
reusing the existing Edge TPU latency model
(:mod:`repro.tpu.latency` / :mod:`repro.tpu.pipeline`):

``reward = lower-bound period / achieved period``

The *achieved* period is the closed-form steady-state bottleneck of the
schedule's stage profiles (exactly
:meth:`repro.tpu.pipeline.PipelinedTpuSystem.theoretical_period`, the
quantity the fleet simulator converges to).  The *lower bound* is the
schedule-independent compute bound

``max(total compute seconds / num_stages, max single-node seconds)``

— no pipeline can beat a perfectly balanced compute split, and no stage
can be faster than its slowest single operator.  The ratio lands in
``(0, 1]`` for compute-bound workloads: 1.0 means the schedule balanced
the pipeline perfectly, 0.5 means the bottleneck stage carries twice the
ideal share.  For transfer- or streaming-bound schedules the bound is
loose (the reward dips low for *every* scheduler); drift comparisons are
therefore always made against the same reward model, never across
models.

Everything is O(|V| + |E|) per schedule, which is what makes the reward
recordable per serve by :class:`repro.online.ExperienceBuffer`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.graphs.dag import ComputationalGraph
from repro.scheduling.schedule import Schedule
from repro.scheduling.sequence import pack_sequence
from repro.tpu.latency import op_compute_seconds
from repro.tpu.pipeline import PipelinedTpuSystem, compute_stage_profiles
from repro.tpu.spec import EdgeTPUSpec, default_spec


class PipelineLatencyReward:
    """Pipeline-efficiency reward model over the Edge TPU latency model.

    Parameters
    ----------
    spec:
        Device/link specification the stage profiles are computed with
        (defaults to the Coral USB accelerator).
    bus_mode:
        Interconnect topology for the bottleneck period (``"per_stage"``
        or ``"shared"``, see :class:`~repro.tpu.pipeline
        .PipelinedTpuSystem`).
    """

    def __init__(
        self, spec: Optional[EdgeTPUSpec] = None, bus_mode: str = "per_stage"
    ) -> None:
        self.spec = spec or default_spec()
        self._system = PipelinedTpuSystem(self.spec, bus_mode=bus_mode)

    # ------------------------------------------------------------------
    def period(self, graph: ComputationalGraph, schedule: Schedule) -> float:
        """Achieved steady-state bottleneck period of ``schedule``."""
        profiles = compute_stage_profiles(graph, schedule, self.spec)
        return self._system.theoretical_period(profiles)

    def bound_period(self, graph: ComputationalGraph, num_stages: int) -> float:
        """Schedule-independent lower bound on any ``num_stages`` period."""
        computes = [
            op_compute_seconds(graph.node(name), self.spec)
            for name in graph.node_names
        ]
        if not computes:
            return 0.0
        return max(sum(computes) / max(1, num_stages), max(computes))

    # ------------------------------------------------------------------
    def reward(self, graph: ComputationalGraph, schedule: Schedule) -> float:
        """``bound / achieved`` pipeline efficiency in ``(0, 1]``-ish."""
        achieved = self.period(graph, schedule)
        if achieved <= 0.0:
            return 1.0
        return self.bound_period(graph, schedule.num_stages) / achieved

    def order_reward(
        self,
        graph: ComputationalGraph,
        order: Sequence[str],
        num_stages: int,
        budget_slack: Optional[float] = None,
    ) -> float:
        """Reward of packing ``order`` through ``rho`` (training helper).

        This is the cost surface the online REINFORCE polish optimizes:
        ``cost = 1 - order_reward`` is bounded like the cosine cost, so
        the existing trainer's learning rates transfer.
        """
        packed = pack_sequence(graph, order, num_stages, budget_slack=budget_slack)
        return self.reward(graph, packed)

    def gap_to_bound(self, graph: ComputationalGraph, schedule: Schedule) -> float:
        """Relative gap ``achieved/bound - 1`` (0 = perfectly balanced)."""
        reward = self.reward(graph, schedule)
        if reward <= 0.0:
            return float("inf")
        return 1.0 / reward - 1.0


def default_reward_model() -> PipelineLatencyReward:
    """The reward model the online subsystem uses unless told otherwise."""
    return PipelineLatencyReward()


__all__ = ["PipelineLatencyReward", "default_reward_model"]
