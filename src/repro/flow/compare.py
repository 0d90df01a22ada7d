"""Comparison harness shared by every evaluation figure.

One call per (model, method, stage count): quantize the model, let the
scheduler solve it, deploy the schedule and simulate the 1,000-inference
workload the paper measures.  Results carry all three quantities the
evaluation section reports: schedule *solving time* (Fig. 3), simulated
*on-chip runtime* (Fig. 4) and *peak parameter-caching memory* (Fig. 5).
"""

from __future__ import annotations

import weakref
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

    Sums the :class:`~repro.service.ServiceStats` counters over every
    service the wrapped factory created (they share one cache, so
    ``hit_rate`` reflects reuse across separate comparison calls) —
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


class _ServedService:
    """Façade over a :class:`SchedulingService` created by a served factory.

    Delegates every attribute to the wrapped service, and on garbage
    collection triggers ``finalizer(service)`` — letting
    :func:`serve_methods` fold the service's final counters into its
    per-method tallies at exactly the moment the caller abandons it,
    without the factory ever holding a strong reference.
    """

    def __init__(self, service: object, finalizer: Callable) -> None:
        self._service = service
        weakref.finalize(self, finalizer, service)

    def __getattr__(self, name: str) -> object:
        return getattr(object.__getattribute__(self, "_service"), name)

    def __enter__(self) -> "_ServedService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._service.close()  # type: ignore[attr-defined]


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
    :class:`repro.service.SchedulingService` around the underlying
    scheduler.  The service duck-types as a scheduler
    (``schedule``/``schedule_batch``/``method_name``), so
    :func:`compare_methods`, :func:`run_method_batch` and
    :func:`compare_methods_over_models` transparently gain the
    fingerprint cache and micro-batching — with schedules bit-identical
    to the unserved path.  Each wrapped method owns one
    :class:`~repro.service.TieredScheduleStore` *shared across every
    service its factory creates*, so repeated models are solved once per
    method even across separate comparison calls (safe: cache keys embed each
    scheduler instance's options fingerprint).  Idle services retire
    their worker threads automatically, so factory-created services
    need no explicit ``close()``.

    With ``num_shards > 1`` every factory call yields a
    :class:`repro.service.ShardedSchedulingService` instead — requests
    fan out by graph fingerprint over per-shard solver workers behind
    the given admission policy (see the sharded service docs), and each
    shard's store persists across the factory's service generations.
    The underlying factory is then invoked once per shard, so it must
    produce equivalently-configured schedulers (the same assumption the
    shared store already makes across calls).

    With ``decode_workers > 0`` every created service owns a
    :class:`~repro.service.workers.DecodeWorkerPool` of that many
    processes and routes RESPECT policy decodes through it (heuristic
    methods are unaffected); schedules stay bit-identical.  Close such
    services explicitly (``with make() as service:``) so the worker
    processes are reaped promptly rather than at interpreter exit.

    With ``store_dir=`` the per-method stores become **persistent**: one
    shared :class:`~repro.service.DiskScheduleStore` is opened at that
    directory and each method's store (each *shard's* store when
    sharded) stacks its LRU over its own namespace in it —
    ``"<method>"`` for single-shard methods, ``"<method>/shard-<i>"``
    for sharded ones.  A later :func:`serve_methods` call (or process)
    over the same directory warm-starts: graphs any previous run solved
    are served from disk without touching the solver, bit-identically.
    Each returned factory exposes the store as ``schedule_store``
    (snapshot it explicitly at good cut points; it is also snapshotted
    when garbage-collected, and appends are flushed as they happen).

    Each returned factory additionally exposes ``service_stats()`` —
    aggregated over all services it created — which
    :func:`served_method_stats` collects into per-method cache hit rates
    and mean micro-batch sizes.
    """
    from repro.service import (
        DiskScheduleStore,
        SchedulingService,
        ShardedSchedulingService,
        TieredScheduleStore,
    )

    shared_store = (
        DiskScheduleStore(store_dir) if store_dir is not None else None
    )

    def wrap(name: str, factory: SchedulerFactory) -> SchedulerFactory:
        namespaces = (
            [f"{name}/shard-{i}" for i in range(num_shards)]
            if num_shards > 1
            else [name]
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
        # Created services are handed out behind `_ServedService` façades
        # tracked only weakly, so a long-lived served dict does not keep
        # every service it ever created alive.  When a caller drops its
        # façade, the finalizer reads the real service's *final* counters
        # into the running tallies — stats stay exact whether a service
        # is still in use or long abandoned.
        tracked: List["weakref.ref[_ServedService]"] = []
        folded = {
            "services": 0,
            "requests": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "batches": 0,
            "scheduled_graphs": 0,
        }

        def fold(service: object) -> None:
            stats = service.stats()
            folded["services"] += 1
            folded["requests"] += stats.requests
            folded["cache_hits"] += stats.cache_hits
            folded["coalesced"] += stats.coalesced
            folded["batches"] += stats.batches
            folded["scheduled_graphs"] += stats.scheduled_graphs

        def make() -> object:
            if num_shards > 1:
                service: object = ShardedSchedulingService(
                    scheduler_factory=factory,
                    num_shards=num_shards,
                    max_queue_depth=max_queue_depth,
                    admission=admission,
                    stores=stores,
                    max_batch_size=max_batch_size,
                    batch_window_s=batch_window_s,
                    decode_workers=decode_workers,
                )
            else:
                service = SchedulingService(
                    factory(),
                    store=stores[0],
                    max_batch_size=max_batch_size,
                    batch_window_s=batch_window_s,
                    decode_workers=decode_workers,
                )
            served = _ServedService(service, fold)
            tracked[:] = [ref for ref in tracked if ref() is not None]
            tracked.append(weakref.ref(served))
            return served

        def service_stats() -> ServedMethodStats:
            live = []
            for ref in tracked:
                served = ref()
                if served is not None:
                    live.append(served.stats())
            return ServedMethodStats(
                method=name,
                services=folded["services"] + len(live),
                requests=folded["requests"] + sum(s.requests for s in live),
                cache_hits=(
                    folded["cache_hits"] + sum(s.cache_hits for s in live)
                ),
                coalesced=folded["coalesced"] + sum(s.coalesced for s in live),
                batches=folded["batches"] + sum(s.batches for s in live),
                scheduled_graphs=(
                    folded["scheduled_graphs"]
                    + sum(s.scheduled_graphs for s in live)
                ),
            )

        make.service_stats = service_stats  # type: ignore[attr-defined]
        make.schedule_store = shared_store  # type: ignore[attr-defined]
        return make

    return {name: wrap(name, factory) for name, factory in methods.items()}
