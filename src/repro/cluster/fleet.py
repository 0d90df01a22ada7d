"""Fleet modeling: heterogeneous pipelined-TPU replicas behind one router.

A :class:`Fleet` is a set of :class:`Replica` instances — each a
pipelined Edge TPU rig with its own stage count, device spec and bus
topology — that all serve the same model catalog.  Building a fleet runs
every ``(model, stage count)`` pair through a shared
:class:`~repro.service.SchedulingService`, so replicas with equal stage
counts reuse each other's schedules straight from the fingerprint cache
(the build stats record exactly how much reuse happened).

Per-replica, per-model :class:`ModelDeployment` entries carry the
:class:`~repro.tpu.pipeline.StageProfile` list the fleet simulator and
the SLO-aware router both consume: the profiles determine true simulated
timing, while their aggregate ``period_seconds`` / ``latency_seconds``
estimates feed routing decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import DeploymentError
from repro.graphs.dag import ComputationalGraph
from repro.scheduling.postprocess import postprocess_schedule
from repro.service import SchedulingService
from repro.tpu.latency import weight_stream_seconds
from repro.tpu.pipeline import StageProfile, compute_stage_profiles
from repro.tpu.quantize import is_quantized, quantize_graph
from repro.tpu.spec import EdgeTPUSpec, default_spec

_BUS_MODES = ("per_stage", "shared")


@dataclass(frozen=True)
class ReplicaSpec:
    """Static description of one pipeline replica."""

    name: str
    num_stages: int
    spec: EdgeTPUSpec = field(default_factory=default_spec)
    bus_mode: str = "per_stage"

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise DeploymentError(
                f"replica {self.name!r} needs at least one stage"
            )
        if self.bus_mode not in _BUS_MODES:
            raise DeploymentError(
                f"replica {self.name!r}: unknown bus_mode {self.bus_mode!r}; "
                f"choose from {_BUS_MODES}"
            )


@dataclass(frozen=True)
class ModelDeployment:
    """One model compiled onto one replica.

    ``period_seconds`` is the steady-state bottleneck period (the
    marginal cost of queueing one more request of this model on the
    replica); ``latency_seconds`` is the uncontended pipeline traversal
    time (the cost of the *last* request in a queue).  Both are derived
    from the stage profiles, mirroring
    :meth:`repro.tpu.pipeline.PipelinedTpuSystem.theoretical_period`.
    """

    model: str
    profiles: Tuple[StageProfile, ...]
    period_seconds: float
    latency_seconds: float
    #: Extra pipeline traversal time when the replica's stages must
    #: reload this model's resident (on-chip) weights because the
    #: previous inference ran a different model.
    switch_latency_seconds: float
    #: Extra bottleneck occupancy of one model switch (the worst stage's
    #: reload) — the marginal queueing cost of breaking model affinity.
    switch_period_seconds: float
    schedule_cache_hit: bool

    @property
    def num_stages(self) -> int:
        return len(self.profiles)


def _deployment_estimates(
    profiles: Sequence[StageProfile], bus_mode: str, spec: EdgeTPUSpec
) -> Tuple[float, float, float, float]:
    device = max((p.device_seconds for p in profiles), default=0.0)
    if bus_mode == "shared":
        link = sum(p.link_seconds for p in profiles)
    else:
        link = max((p.link_seconds for p in profiles), default=0.0)
    period = max(device, link)
    latency = sum(
        p.input_transfer_seconds
        + p.weight_stream_seconds
        + p.compute_seconds
        + p.output_transfer_seconds
        for p in profiles
    )
    reloads = [
        weight_stream_seconds(p.on_chip_bytes, spec) for p in profiles
    ]
    return period, latency, sum(reloads), max(reloads, default=0.0)


class Replica:
    """One fleet member: a replica spec plus its model deployments."""

    def __init__(
        self, spec: ReplicaSpec, deployments: Mapping[str, ModelDeployment]
    ) -> None:
        self.spec = spec
        self.deployments = dict(deployments)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_stages(self) -> int:
        return self.spec.num_stages

    def deployment(self, model: str) -> ModelDeployment:
        try:
            return self.deployments[model]
        except KeyError:
            raise DeploymentError(
                f"model {model!r} is not deployed on replica {self.name!r}; "
                f"available: {sorted(self.deployments)}"
            ) from None


@dataclass(frozen=True)
class FleetBuildStats:
    """Schedule-reuse accounting of one :func:`build_fleet` call."""

    schedule_requests: int
    cache_hits: int
    unique_solves: int

    @property
    def hit_rate(self) -> float:
        if self.schedule_requests == 0:
            return 0.0
        return self.cache_hits / self.schedule_requests


class Fleet:
    """An ordered set of replicas sharing one model catalog."""

    def __init__(
        self,
        replicas: Sequence[Replica],
        models: Mapping[str, ComputationalGraph],
        build_stats: Optional[FleetBuildStats] = None,
    ) -> None:
        if not replicas:
            raise DeploymentError("a fleet needs at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise DeploymentError(f"replica names must be unique, got {names}")
        self.replicas = list(replicas)
        self.models = dict(models)
        self.build_stats = build_stats or FleetBuildStats(0, 0, 0)

    def __len__(self) -> int:
        return len(self.replicas)

    def replica(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise DeploymentError(f"no replica named {name!r} in the fleet")


def build_fleet(
    replica_specs: Sequence[ReplicaSpec],
    models: Mapping[str, ComputationalGraph],
    scheduler: Optional[object] = None,
    service: Optional[object] = None,
    num_shards: int = 1,
    decode_workers: int = 0,
    store_dir: Optional[str] = None,
) -> Fleet:
    """Compile every model onto every replica through one shared service.

    Exactly one of ``scheduler`` / ``service`` must be supplied.  A bare
    scheduler gets a temporary :class:`SchedulingService` stood in front
    of it with ``num_shards`` shards — large catalogs then compile
    across per-shard solver workers concurrently.  ``decode_workers >
    0`` additionally moves RESPECT policy decodes into that many worker
    *processes* (see :class:`~repro.service.DecodeWorkerPool`) for the
    owned service's lifetime; schedules are bit-identical either way.
    ``num_shards`` and ``decode_workers`` are ignored for an explicit
    ``service`` — configure them on the service you pass.

    With ``store_dir=`` the owned tier mounts a persistent
    :class:`~repro.service.DiskScheduleStore` at that directory (see
    :class:`~repro.service.SchedulingService`), so fleet builds reuse
    schedules **across process restarts**, not just within one build —
    rebuilding an unchanged catalog is pure cache hits with zero solver
    invocations, and ``build_stats`` counts the disk hits as reuse.
    Ignored when an explicit ``service`` is passed (persist by
    constructing that service with its own ``store_dir=``).

    Schedules depend only on ``(graph, num_stages, scheduler options)``,
    so replicas sharing a stage count are answered from the serving
    tier's fingerprint cache — fingerprint routing pins each
    ``(model, stage count)`` pair to one shard, so sharding loses no
    reuse; the returned fleet's ``build_stats`` report what was
    observed.  Each replica's models are submitted as one concurrent
    burst (the micro-batcher aggregates them), while replicas proceed
    in order so cross-replica repeats stay countable cache hits.  Stage
    *profiles* are still computed per replica, because they depend on
    each replica's device/link spec.
    """
    if not replica_specs:
        raise DeploymentError("build_fleet needs at least one replica spec")
    if not models:
        raise DeploymentError("build_fleet needs at least one model")
    if (scheduler is None) == (service is None):
        raise DeploymentError(
            "supply exactly one of scheduler= or service= to build_fleet"
        )
    names = [spec.name for spec in replica_specs]
    if len(set(names)) != len(names):
        raise DeploymentError(f"replica names must be unique, got {names}")

    quantized: Dict[str, ComputationalGraph] = {
        name: graph if is_quantized(graph) else quantize_graph(graph)
        for name, graph in models.items()
    }

    owned = service is None
    if owned:
        service = SchedulingService(
            scheduler,
            num_shards=num_shards,
            decode_workers=decode_workers,
            store_dir=store_dir,
        )
    try:
        requests = 0
        hits = 0
        replicas: List[Replica] = []
        model_names = sorted(quantized)
        for spec in replica_specs:
            futures = [
                service.submit(quantized[model_name], spec.num_stages)
                for model_name in model_names
            ]
            deployments: Dict[str, ModelDeployment] = {}
            for model_name, future in zip(model_names, futures):
                graph = quantized[model_name]
                result = future.result()
                requests += 1
                # Reuse = answered without a dedicated solve: a cache
                # hit, or (content-identical models submitted in the
                # same burst) a request coalesced onto a sibling's
                # in-flight solve — the concurrent submission must not
                # under-report reuse the sequential loop counted as
                # hits.
                cache_hit = bool(
                    result.extras.get("cache_hit", False)
                ) or bool(getattr(future, "_respect_coalesced", False))
                hits += cache_hit
                schedule = postprocess_schedule(result.schedule)
                profiles = tuple(
                    compute_stage_profiles(graph, schedule, spec.spec)
                )
                period, latency, switch_latency, switch_period = (
                    _deployment_estimates(profiles, spec.bus_mode, spec.spec)
                )
                deployments[model_name] = ModelDeployment(
                    model=model_name,
                    profiles=profiles,
                    period_seconds=period,
                    latency_seconds=latency,
                    switch_latency_seconds=switch_latency,
                    switch_period_seconds=switch_period,
                    schedule_cache_hit=cache_hit,
                )
            replicas.append(Replica(spec, deployments))
    finally:
        if owned:
            service.close()
    stats = FleetBuildStats(
        schedule_requests=requests,
        cache_hits=hits,
        unique_solves=requests - hits,
    )
    return Fleet(replicas, quantized, stats)
