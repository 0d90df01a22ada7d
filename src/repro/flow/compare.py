"""Comparison harness shared by every evaluation figure.

One call per (model, method, stage count): quantize the model, let the
scheduler solve it, deploy the schedule and simulate the 1,000-inference
workload the paper measures.  Results carry all three quantities the
evaluation section reports: schedule *solving time* (Fig. 3), simulated
*on-chip runtime* (Fig. 4) and *peak parameter-caching memory* (Fig. 5).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import SchedulingError
from repro.graphs.dag import ComputationalGraph
from repro.scheduling.compiler_proxy import EdgeTpuCompilerProxy
from repro.scheduling.ilp import IlpScheduler
from repro.scheduling.postprocess import postprocess_schedule
from repro.scheduling.schedule import ScheduleResult
from repro.scheduling.sequence import normalize_stage_counts
from repro.tpu.pipeline import PipelinedTpuSystem, PipelineReport
from repro.tpu.quantize import is_quantized, quantize_graph
from repro.tpu.spec import EdgeTPUSpec, default_spec

#: A scheduler factory: () -> object with .schedule(graph, num_stages).
SchedulerFactory = Callable[[], object]


@dataclass
class MethodOutcome:
    """Everything measured for one (model, method, stages) cell."""

    model: str
    method: str
    num_stages: int
    solve_time_seconds: float
    seconds_per_inference: float
    peak_stage_param_bytes: int
    objective: float
    report: PipelineReport
    schedule_result: ScheduleResult


def default_methods() -> Dict[str, SchedulerFactory]:
    """The paper's three contenders (RESPECT joins once a policy exists)."""
    return {
        "edgetpu_compiler": EdgeTpuCompilerProxy,
        "ilp": IlpScheduler,
    }


def adapted_policy_method(
    checkpoint_dir, checkpoint_name: str = "respect_online", **scheduler_kwargs
) -> SchedulerFactory:
    """Factory for a RESPECT scheduler running a *promoted* checkpoint.

    Loads the named artifact through the validated checkpoint lifecycle
    (:func:`repro.rl.checkpoints.load_checkpoint` — online promotions
    persist there with their drift provenance) and wraps it exactly like
    the shipped policy, so an adapted policy is a first-class comparison
    method anywhere a method dict is accepted.  The checkpoint is loaded
    once per factory *call*, keeping the factory cheap to build and the
    scheduler fresh per comparison.
    """
    from repro.rl.checkpoints import load_checkpoint
    from repro.rl.respect import RespectScheduler

    def factory() -> object:
        policy = load_checkpoint(checkpoint_dir, checkpoint_name)
        return RespectScheduler(policy=policy, **scheduler_kwargs)

    return factory


def champion_challenger_methods(
    checkpoint_dir,
    checkpoint_name: str = "respect_online",
    champion_factory: Optional[SchedulerFactory] = None,
) -> Dict[str, SchedulerFactory]:
    """Method dict pitting the serving champion against a promoted policy.

    ``compare_methods_over_models(graphs, champion_challenger_methods(d),
    stages)`` replays any evaluation with both policies side by side —
    the offline audit of what an online promotion actually changed.
    ``champion_factory`` defaults to the shipped pretrained scheduler.
    """
    from repro.rl.respect import RespectScheduler

    return {
        "respect_champion": champion_factory or RespectScheduler,
        "respect_adapted": adapted_policy_method(
            checkpoint_dir, checkpoint_name
        ),
    }


def schedule_many(
    scheduler: object,
    graphs: Sequence[ComputationalGraph],
    num_stages,
) -> List[ScheduleResult]:
    """Schedule every graph, batched when the scheduler supports it.

    Schedulers exposing ``schedule_batch`` (the RESPECT batched engine)
    solve all graphs in one vectorized pass; everything else falls back
    to a sequential loop.  ``num_stages`` is an int shared by all graphs
    or a per-graph sequence.
    """
    graphs = list(graphs)
    stage_counts = normalize_stage_counts(num_stages, len(graphs))
    batch = getattr(scheduler, "schedule_batch", None)
    if callable(batch):
        return batch(graphs, stage_counts)
    return [
        scheduler.schedule(graph, stages)  # type: ignore[attr-defined]
        for graph, stages in zip(graphs, stage_counts)
    ]


def _outcome_from_result(
    graph: ComputationalGraph,
    result: ScheduleResult,
    num_stages: int,
    num_inferences: int,
    spec: Optional[EdgeTPUSpec],
    model_name: str,
    method_name: str,
) -> MethodOutcome:
    """Deploy + simulate one already-solved schedule."""
    schedule = postprocess_schedule(result.schedule)
    system = PipelinedTpuSystem(spec or default_spec())
    report = system.run(graph, schedule, num_inferences=num_inferences)
    return MethodOutcome(
        model=model_name or graph.name,
        method=method_name or result.method,
        num_stages=num_stages,
        solve_time_seconds=result.solve_time,
        seconds_per_inference=report.seconds_per_inference,
        peak_stage_param_bytes=schedule.peak_stage_param_bytes,
        objective=result.objective,
        report=report,
        schedule_result=result,
    )


def run_method(
    graph: ComputationalGraph,
    scheduler: object,
    num_stages: int,
    num_inferences: int = 1000,
    spec: Optional[EdgeTPUSpec] = None,
    model_name: str = "",
    method_name: str = "",
) -> MethodOutcome:
    """Schedule + deploy + simulate one configuration.

    ``graph`` should already be quantized (all methods schedule the same
    int8 model, as the real deployment flow does after Toco conversion).
    """
    if not is_quantized(graph):
        raise SchedulingError(
            "run_method expects a quantized graph; call quantize_graph first"
        )
    result: ScheduleResult = scheduler.schedule(graph, num_stages)  # type: ignore[attr-defined]
    return _outcome_from_result(
        graph, result, num_stages, num_inferences, spec, model_name, method_name
    )


def run_method_batch(
    graphs: Sequence[ComputationalGraph],
    scheduler: object,
    num_stages: Union[int, Sequence[int]],
    num_inferences: int = 1000,
    spec: Optional[EdgeTPUSpec] = None,
    model_names: Optional[Sequence[str]] = None,
    method_name: str = "",
) -> List[MethodOutcome]:
    """Batched :func:`run_method` over many graphs with one scheduler.

    Uses :func:`schedule_many`, so the RESPECT batched engine solves the
    whole set in a single vectorized decode before each schedule is
    deployed and simulated individually.  ``num_stages`` is an int shared
    by all graphs or a per-graph sequence; each outcome records its own
    graph's stage count.
    """
    graphs = list(graphs)
    stage_counts = normalize_stage_counts(num_stages, len(graphs))
    for graph in graphs:
        if not is_quantized(graph):
            raise SchedulingError(
                "run_method_batch expects quantized graphs; call "
                "quantize_graph first"
            )
    names = list(model_names) if model_names is not None else [
        graph.name for graph in graphs
    ]
    if len(names) != len(graphs):
        raise SchedulingError(
            f"model_names has {len(names)} entries for {len(graphs)} graphs"
        )
    results = schedule_many(scheduler, graphs, stage_counts)
    return [
        _outcome_from_result(
            graph, result, stages, num_inferences, spec, name, method_name
        )
        for graph, result, stages, name in zip(
            graphs, results, stage_counts, names
        )
    ]


def compare_methods(
    graph: ComputationalGraph,
    methods: Dict[str, SchedulerFactory],
    num_stages: int,
    num_inferences: int = 1000,
    spec: Optional[EdgeTPUSpec] = None,
    model_name: str = "",
) -> Dict[str, MethodOutcome]:
    """Run every method on the same quantized graph and stage count."""
    quantized = graph if is_quantized(graph) else quantize_graph(graph)
    outcomes: Dict[str, MethodOutcome] = {}
    for name, factory in methods.items():
        scheduler = factory()
        outcomes[name] = run_method(
            quantized,
            scheduler,
            num_stages,
            num_inferences=num_inferences,
            spec=spec,
            model_name=model_name or graph.name,
            method_name=name,
        )
    return outcomes


def compare_methods_over_models(
    graphs: Sequence[ComputationalGraph],
    methods: Dict[str, SchedulerFactory],
    num_stages: Union[int, Sequence[int]],
    num_inferences: int = 1000,
    spec: Optional[EdgeTPUSpec] = None,
) -> List[Dict[str, MethodOutcome]]:
    """Run every method over a whole fleet of models.

    Each method instantiates once and schedules the entire set via
    :func:`schedule_many` — batched schedulers amortize their network
    cost over the fleet.  ``num_stages`` is shared or per-graph (each
    outcome carries its own graph's count).  Returns one
    ``{method: outcome}`` dict per graph, index-aligned with ``graphs``.
    """
    quantized = [
        graph if is_quantized(graph) else quantize_graph(graph)
        for graph in graphs
    ]
    names = [graph.name for graph in graphs]
    per_graph: List[Dict[str, MethodOutcome]] = [{} for _ in quantized]
    for name, factory in methods.items():
        scheduler = factory()
        outcomes = run_method_batch(
            quantized,
            scheduler,
            num_stages,
            num_inferences=num_inferences,
            spec=spec,
            model_names=names,
            method_name=name,
        )
        for slot, outcome in zip(per_graph, outcomes):
            slot[name] = outcome
    return per_graph


@dataclass(frozen=True)
class ServedMethodStats:
    """Aggregated service counters of one :func:`serve_methods` method.

    Registry totals of the :class:`~repro.service.ServiceStats` counters
    over every service the wrapped factory created, live or abandoned
    (they share one store per shard, so ``hit_rate`` reflects reuse
    across separate comparison calls) —
    fleet experiments report schedule-reuse numbers from here instead of
    reaching into service internals.
    """

    method: str
    services: int
    requests: int
    cache_hits: int
    coalesced: int
    batches: int
    scheduled_graphs: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.scheduled_graphs / self.batches if self.batches else 0.0


def served_method_stats(
    methods: Dict[str, SchedulerFactory],
) -> Dict[str, ServedMethodStats]:
    """Per-method cache/service stats of a :func:`serve_methods` dict.

    Raises :class:`SchedulingError` when given a method dict that never
    went through :func:`serve_methods` (there is nothing to report).
    """
    stats: Dict[str, ServedMethodStats] = {}
    for name, factory in methods.items():
        collect = getattr(factory, "service_stats", None)
        if not callable(collect):
            raise SchedulingError(
                f"method {name!r} was not wrapped by serve_methods; "
                "service stats are only available for served method dicts"
            )
        stats[name] = collect()
    return stats


def serve_methods(
    methods: Dict[str, SchedulerFactory],
    cache_capacity: int = 512,
    max_batch_size: int = 32,
    batch_window_s: float = 0.002,
    num_shards: int = 1,
    max_queue_depth: int = 64,
    admission: str = "block",
    decode_workers: int = 0,
    store_dir: Optional[str] = None,
) -> Dict[str, SchedulerFactory]:
    """Route a method dict through the scheduling service layer.

    Wraps every factory so it yields a
    :class:`repro.service.SchedulingService` of ``num_shards`` shards
    around the underlying scheduler (invoked once per shard, so it must
    produce equivalently-configured schedulers — the same assumption the
    shared store already makes across calls).  The service duck-types as
    a scheduler (``schedule``/``schedule_batch``/``method_name``), so
    :func:`compare_methods`, :func:`run_method_batch` and
    :func:`compare_methods_over_models` transparently gain the
    fingerprint cache and micro-batching — with schedules bit-identical
    to the unserved path.  Each wrapped method owns one
    :class:`~repro.service.TieredScheduleStore` per shard *shared across
    every service its factory creates*, so repeated models are solved
    once per method even across separate comparison calls (safe: cache
    keys embed each scheduler instance's options fingerprint).  Requests
    fan out by graph fingerprint over the shards' solver workers behind
    the given admission policy.  Idle services retire their worker
    threads automatically, so factory-created services need no explicit
    ``close()``.

    With ``decode_workers > 0`` every created service owns a
    :class:`~repro.service.workers.DecodeWorkerPool` of that many
    processes and routes RESPECT policy decodes through it (heuristic
    methods are unaffected); schedules stay bit-identical.  Close such
    services explicitly (``with make() as service:``) so the worker
    processes are reaped promptly rather than at interpreter exit.

    With ``store_dir=`` the per-method stores become **persistent**: one
    shared :class:`~repro.service.DiskScheduleStore` is opened at that
    directory and each method's shard stores stack their LRUs over
    their own namespaces in it — ``"<method>"`` for one shard,
    ``"<method>/shard-<i>"`` for more.  A later :func:`serve_methods`
    call (or process) over the same directory warm-starts: graphs any
    previous run solved are served from disk without touching the
    solver, bit-identically.  Each returned factory exposes the store as
    ``schedule_store`` (snapshot it explicitly at good cut points; it is
    also snapshotted when garbage-collected, and appends are flushed as
    they happen).

    Each returned factory additionally exposes ``service_stats()``,
    which :func:`served_method_stats` collects into per-method cache hit
    rates and mean micro-batch sizes.  It reads one metrics registry per
    method: every service the factory creates records into it under its
    own ``generation="<n>"`` label, so the totals cover live and
    abandoned services alike without retaining any of them.
    """
    from repro.obs.telemetry import Telemetry
    from repro.service import (
        DiskScheduleStore,
        SchedulingService,
        TieredScheduleStore,
    )

    shared_store = (
        DiskScheduleStore(store_dir) if store_dir is not None else None
    )

    def wrap(name: str, factory: SchedulerFactory) -> SchedulerFactory:
        namespaces = (
            [name]
            if num_shards == 1
            else [f"{name}/shard-{i}" for i in range(num_shards)]
        )
        stores = [
            TieredScheduleStore(
                disk=(
                    shared_store.namespace(namespace)
                    if shared_store is not None
                    else None
                ),
                memory_capacity=cache_capacity,
            )
            for namespace in namespaces
        ]
        telemetry = Telemetry()
        lock = threading.Lock()
        created = [0]

        def make() -> SchedulingService:
            with lock:
                generation = created[0]
                created[0] += 1
            return SchedulingService(
                scheduler_factory=factory,
                num_shards=num_shards,
                max_queue_depth=max_queue_depth,
                admission=admission,
                stores=stores,
                max_batch_size=max_batch_size,
                batch_window_s=batch_window_s,
                decode_workers=decode_workers,
                telemetry=telemetry.child(generation=str(generation)),
            )

        def service_stats() -> ServedMethodStats:
            total = telemetry.registry.counter_total
            with lock:
                services = created[0]
            return ServedMethodStats(
                method=name,
                services=services,
                requests=total("respect_requests_total"),
                cache_hits=total("respect_cache_hits_total"),
                coalesced=total("respect_coalesced_total"),
                batches=total("respect_batches_total"),
                scheduled_graphs=total("respect_scheduled_graphs_total"),
            )

        make.service_stats = service_stats  # type: ignore[attr-defined]
        make.schedule_store = shared_store  # type: ignore[attr-defined]
        return make

    return {name: wrap(name, factory) for name, factory in methods.items()}
