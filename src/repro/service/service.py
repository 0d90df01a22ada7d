"""Concurrent scheduling service: fingerprint cache + micro-batching.

:class:`SchedulingService` turns any scheduler with a
``schedule(graph, num_stages)`` method into a high-throughput request
server.  Three mechanisms amortize the per-request cost:

1. **Fingerprint cache** — requests are keyed by
   ``(graph_fingerprint, num_stages, scheduler options fingerprint)``;
   a previously solved graph is answered from the service's
   :class:`~repro.service.store.TieredScheduleStore` (an LRU over an
   optional disk tier) without touching the scheduler at all.
2. **In-flight coalescing** — concurrent identical requests (a thundering
   herd on a cache miss) share one solve: later submitters attach to the
   pending request instead of enqueuing a duplicate.
3. **Micro-batching** — distinct pending requests are aggregated by a
   worker thread (up to ``max_batch_size``, waiting at most
   ``batch_window_s`` after the first) and routed through the
   scheduler's vectorized ``schedule_batch`` when it has one (the
   RESPECT batched decode engine); schedulers without a batched path
   fall back to a sequential loop on the worker.

Served schedules are *bit-identical* to direct ``scheduler.schedule``
calls: the batched decode is equivalence-tested against the sequential
path, and cache keys are exactly as discriminating as the scheduler
(see :mod:`repro.graphs.fingerprint`).  Every result's schedule is bound
to the requesting caller's own graph object even when it was solved for
(or cached from) a content-identical twin.

The scheduler behind a running service can be replaced without downtime
via :meth:`SchedulingService.swap_scheduler` (the online-adaptation
champion/challenger promotion path): the worker snapshots the scheduler
per batch, so every request — before, during or after the swap — is
served bit-identically by exactly one policy version, and post-swap
requests key onto the new options fingerprint (evict the old entries
with :meth:`~repro.service.ScheduleCache.invalidate_options`).
Observers registered through
:meth:`SchedulingService.add_serve_listener` see every resolved request
— the hook the online experience recorder uses.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ServiceError
from repro.graphs.dag import ComputationalGraph
from repro.graphs.fingerprint import graph_fingerprint
from repro.obs.telemetry import Telemetry
from repro.obs.trace import current_span
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.scheduling.sequence import normalize_stage_counts
from repro.service.cache import (
    CachedSchedule,
    CacheKey,
    ScheduleCache,
)
from repro.service.store import (
    DEFAULT_NAMESPACE,
    DiskScheduleStore,
    TieredScheduleStore,
    TieredStoreStats,
)
# Still exported from this module: the shared percentile helper is the
# pinned single implementation behind the *report* layers; service-side
# latency percentiles now come from the registry histogram.
from repro.utils.stats import percentile

_LOGGER = logging.getLogger(__name__)

#: How long an idle worker thread lingers before retiring.  Retirement
#: drops the thread's reference to the service, so an abandoned
#: (unclosed) service becomes garbage-collectable instead of leaking a
#: polling thread; the next submit restarts the worker transparently.
_WORKER_IDLE_S = 1.0

_SCALARS = (bool, int, float, str, bytes, type(None))


def notify_serve_listeners(
    listeners: Sequence[Callable],
    graph: "ComputationalGraph",
    num_stages: int,
    result: "ScheduleResult",
    record_error: Callable[[], bool],
) -> None:
    """Call every serve listener with uniform error semantics.

    The one implementation behind both the per-shard serve path and the
    sharded tier's degraded path: a faulty observer must never fail the
    request it is observing — but it must not fail *silently* either
    (the drift/adaptation loop would quietly lose its observations).
    Every swallowed exception is reported to ``record_error()`` (which
    counts it under the owner's lock and returns True for the first
    occurrence), and exactly the first one is logged with its traceback.
    """
    for listener in listeners:
        try:
            listener(graph, num_stages, result)
        except Exception:
            if record_error():
                _LOGGER.exception(
                    "serve listener %r raised; the exception is "
                    "swallowed (the request was still served) and "
                    "counted in the service's listener_errors stat — "
                    "further listener failures are counted but not "
                    "logged",
                    listener,
                )


def _option_value_key(name: str, value: object) -> str:
    """One attribute's contribution to the fallback options key.

    Scalars and shallow scalar containers are keyed by value.  Anything
    else (a profiler object, a numpy array, ...) is keyed by *identity*:
    conservative in the safe direction — two scheduler instances holding
    distinct objects never alias a cache entry, at worst they miss one
    they could have shared.
    """
    if isinstance(value, _SCALARS):
        return f"{name}={value!r}"
    if isinstance(value, (list, tuple, set, frozenset)) and all(
        isinstance(v, _SCALARS) for v in value
    ):
        items = sorted(map(repr, value)) if isinstance(
            value, (set, frozenset)
        ) else [repr(v) for v in value]
        return f"{name}={type(value).__name__}[{','.join(items)}]"
    if isinstance(value, dict) and all(
        isinstance(k, _SCALARS) and isinstance(v, _SCALARS)
        for k, v in value.items()
    ):
        items = sorted(f"{k!r}:{v!r}" for k, v in value.items())
        return f"{name}=dict{{{','.join(items)}}}"
    return f"{name}={type(value).__qualname__}@{id(value)}"


def scheduler_options_key(scheduler: object) -> str:
    """Stable digest of everything (besides the graph) that shapes output.

    Schedulers exposing ``options_fingerprint()`` (e.g.
    :class:`~repro.rl.respect.RespectScheduler`, whose digest covers the
    packer options, embedding config *and policy weights*) supply their
    own.  The fallback hashes the scheduler's class identity plus every
    public attribute: scalar-valued options by value, object-valued ones
    by identity — so differently-configured instances of the same
    baseline never share cache entries (instances holding equivalent but
    distinct option *objects* also don't; define ``options_fingerprint``
    on the scheduler to key those by content).
    """
    custom = getattr(scheduler, "options_fingerprint", None)
    if callable(custom):
        return str(custom())
    parts = [
        type(scheduler).__module__,
        type(scheduler).__qualname__,
        str(getattr(scheduler, "method_name", "")),
    ]
    attrs = getattr(scheduler, "__dict__", None) or {}
    for name in sorted(attrs):
        if name.startswith("_"):  # internal state (locks, counters, ...)
            continue
        parts.append(_option_value_key(name, attrs[name]))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters and latency summary.

    A *view* over the service's metrics-registry instruments (see
    :mod:`repro.obs`): every counter here reads the same instrument the
    Prometheus/JSON exposition scrapes, so the two can never disagree.
    ``mean_batch_size`` averages over scheduler batches actually solved;
    latency percentiles come from the registry's streaming latency
    histogram (submit -> result available, cache hits included).
    """

    requests: int
    cache_hits: int
    coalesced: int
    batches: int
    scheduled_graphs: int
    mean_batch_size: float
    hit_rate: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    cache: TieredStoreStats
    #: Hot-swaps performed via :meth:`SchedulingService.swap_scheduler`.
    swaps: int = 0
    #: Serve-listener exceptions swallowed by :meth:`_notify` (the first
    #: occurrence is logged, every one is counted here so a broken
    #: observer — e.g. the online-adaptation recorder — can never fail
    #: *silently*).
    listener_errors: int = 0


class _PendingRequest:
    """One enqueued unique (fingerprint, stages, options) solve."""

    __slots__ = ("key", "graph", "num_stages", "waiters", "deadline_ms", "submit_time")

    def __init__(
        self,
        key: CacheKey,
        graph: ComputationalGraph,
        num_stages: int,
        deadline_ms: Optional[float] = None,
        submit_time: float = 0.0,
    ):
        self.key = key
        self.graph = graph
        self.num_stages = num_stages
        #: Wall-clock budget of the originating submit (None = no
        #: deadline).  Honored when the scheduler exposes
        #: ``schedule_with_deadline`` (e.g. the anytime portfolio);
        #: measured from ``submit_time`` so queueing eats budget.
        self.deadline_ms = deadline_ms
        self.submit_time = submit_time
        #: ``(future, graph, submit_time, span)`` per attached caller;
        #: ``span`` is the caller's sampled request span (or None) —
        #: the worker parents its solve/publish spans to it.
        self.waiters: List[Tuple[Future, ComputationalGraph, float, object]] = []


class ServingFacade:
    """Sync/async conveniences shared by every serving front-end.

    Subclasses provide the core ``submit(graph, num_stages) -> Future``
    and ``close(timeout)``; this mixin derives the blocking
    ``schedule``, the burst ``schedule_batch``, the asyncio ``asubmit``
    bridge, context management, and the narrow-except ``__del__`` from
    them — one implementation for the single service and the sharded
    tier (a fix to any of these must not have to land twice).
    """

    def schedule(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        deadline_ms: Optional[float] = None,
    ) -> ScheduleResult:
        """Blocking single-request convenience (same result as direct)."""
        if deadline_ms is None:
            return self.submit(graph, num_stages).result()  # type: ignore[attr-defined]
        return self.submit(  # type: ignore[attr-defined]
            graph, num_stages, deadline_ms=deadline_ms
        ).result()

    def schedule_batch(
        self,
        graphs: Sequence[ComputationalGraph],
        num_stages: Union[int, Sequence[int]],
    ) -> List[ScheduleResult]:
        """Submit a whole burst and gather results in order.

        Duck-type compatible with
        :meth:`repro.rl.respect.RespectScheduler.schedule_batch`, which
        lets any serving facade drop into :func:`repro.flow.compare
        .schedule_many` and friends as a scheduler.  All requests enter
        the queue before the first gather, so workers naturally
        aggregate them into micro-batches.
        """
        graphs = list(graphs)
        stage_counts = normalize_stage_counts(num_stages, len(graphs))
        futures = [
            self.submit(graph, stages)  # type: ignore[attr-defined]
            for graph, stages in zip(graphs, stage_counts)
        ]
        return [future.result() for future in futures]

    async def asubmit(
        self, graph: ComputationalGraph, num_stages: int
    ) -> ScheduleResult:
        """Async facade over ``submit``.

        ``submit`` itself is dispatched through the event loop's default
        executor (it can block — e.g. behind the sharded tier's
        ``"block"`` admission policy — and must never stall the loop),
        and the returned future is bridged to an awaitable.  The result
        is the same bit-identical :class:`ScheduleResult` the sync path
        serves.  ``asyncio`` is imported here, on first use: it pulls in
        ``ssl`` and ``socket``, which neither the sync path nor a decode
        worker needs.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            None, self.submit, graph, num_stages  # type: ignore[attr-defined]
        )
        return await asyncio.wrap_future(future)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()  # type: ignore[attr-defined]

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(timeout=0.1)  # type: ignore[attr-defined]
        except (AttributeError, TypeError, RuntimeError, ImportError):
            # Expected interpreter-shutdown races only: when the GC
            # finalizes an abandoned service during teardown, module
            # globals may already be None (AttributeError/TypeError),
            # thread primitives unusable (RuntimeError), and imports
            # forbidden (ImportError).  Anything else is a real bug in
            # close() and must surface, not be masked by __del__.
            pass


class SchedulingService(ServingFacade):
    """Thread-safe scheduling front-end over one scheduler instance.

    Parameters
    ----------
    scheduler:
        Any object with ``schedule(graph, num_stages)``; a vectorized
        ``schedule_batch(graphs, stage_counts)`` is used when present.
    store:
        A caller-owned :class:`~repro.service.store.TieredScheduleStore`
        (an LRU over an optional disk namespace) to answer from and
        publish to.  Sharing one between services is safe because keys
        embed the scheduler options fingerprint; :meth:`close` leaves it
        open.  Mutually exclusive with ``store_dir``.
    store_dir:
        Open (or create) a persistent
        :class:`~repro.service.store.DiskScheduleStore` at this
        directory and stack an LRU over its ``"default"`` namespace.
        The service owns the disk store and closes it in :meth:`close`;
        entries written by previous processes over the same directory
        are served without re-solving (warm start).
    cache_capacity:
        Entries in the LRU tier the service builds itself (a memory-only
        store when neither ``store`` nor ``store_dir`` is given);
        ignored with ``store=``.
    max_batch_size:
        Upper bound on requests aggregated into one scheduler batch.
    batch_window_s:
        How long the worker waits for additional requests after the
        first of a batch arrives.  ``0`` disables waiting (each batch is
        whatever is already queued).
    decode_workers:
        When positive, policy decodes run in a pool of that many worker
        *processes* (see :class:`repro.service.workers.DecodeWorkerPool`)
        instead of on the service's worker thread — GIL-free scaling for
        RESPECT-style schedulers, with bit-identical schedules.  ``0``
        (the default) keeps today's in-process decode.  Schedulers the
        pool cannot run (heuristic baselines) silently stay in-process.
    decode_pool:
        A pre-built (possibly shared) pool to use instead of owning one;
        mutually exclusive with a positive ``decode_workers``.  Shared
        pools are *not* closed by :meth:`close` — the owner closes them.
    telemetry:
        A :class:`~repro.obs.Telemetry` facade backing this service's
        counters, latency histogram and (when its tracer is set) the
        per-request span tree.  Defaults to a private metrics-only
        facade — stats views keep working, tracing costs nothing.  When
        several services share one facade, give each a distinguishing
        constant label via ``telemetry.child(...)`` (the sharded tier
        labels its shards ``shard="N"`` this way) so their registry
        series don't alias.

    Use as a context manager or call :meth:`close` to stop the worker;
    ``close`` drains already-accepted requests first.
    """

    def __init__(
        self,
        scheduler: object,
        cache_capacity: int = 1024,
        max_batch_size: int = 32,
        batch_window_s: float = 0.002,
        decode_workers: int = 0,
        decode_pool: Optional[object] = None,
        store: Optional[TieredScheduleStore] = None,
        store_dir: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not callable(getattr(scheduler, "schedule", None)):
            raise ServiceError(
                "scheduler must expose a schedule(graph, num_stages) method"
            )
        if max_batch_size < 1:
            raise ServiceError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if batch_window_s < 0:
            raise ServiceError(
                f"batch_window_s must be >= 0, got {batch_window_s}"
            )
        if decode_workers < 0:
            raise ServiceError(
                f"decode_workers must be >= 0, got {decode_workers}"
            )
        if decode_workers > 0 and decode_pool is not None:
            raise ServiceError(
                "pass either decode_workers=N (service owns a pool) or "
                "decode_pool= (shared), not both"
            )
        if store is not None and store_dir is not None:
            raise ServiceError(
                "pass either store= (caller-owned) or store_dir= "
                "(service-owned), not both"
            )
        if store is not None and not isinstance(store, TieredScheduleStore):
            raise ServiceError(
                f"store= must be a TieredScheduleStore, got "
                f"{type(store).__name__}; wrap a ScheduleCache as "
                f"TieredScheduleStore(memory=cache) and a DiskScheduleStore "
                f"as TieredScheduleStore(disk=disk_store.namespace(name))"
            )
        # Build the store before owning any decode pool so a bad
        # cache_capacity cannot leak worker processes; an owned disk
        # store is closed by close().
        self._owned_store: Optional[DiskScheduleStore] = None
        if store is None:
            disk = None
            if store_dir is not None:
                self._owned_store = DiskScheduleStore(store_dir)
                disk = self._owned_store.namespace(DEFAULT_NAMESPACE)
            store = TieredScheduleStore(disk=disk, memory_capacity=cache_capacity)
        self.cache = store
        self._owns_decode_pool = False
        if decode_workers > 0:
            from repro.service.workers import DecodeWorkerPool

            decode_pool = DecodeWorkerPool(decode_workers)
            self._owns_decode_pool = True
        self._decode_pool = decode_pool
        scheduler = self._wrap_scheduler(scheduler)
        self.scheduler = scheduler
        self.method_name = str(
            getattr(scheduler, "method_name", type(scheduler).__name__)
        )
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self._options_key = scheduler_options_key(scheduler)
        self._cond = threading.Condition()
        self._queue: Deque[_PendingRequest] = deque()
        self._inflight: Dict[CacheKey, _PendingRequest] = {}
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        self._listeners: List[Callable] = []
        # -- registry-backed counters (the single bookkeeping; stats()
        # and the exposition both read these same instruments) ----------
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        tel = self.telemetry
        self._m_requests = tel.counter(
            "respect_requests_total", help="Requests accepted by submit()"
        )
        self._m_cache_hits = tel.counter(
            "respect_cache_hits_total",
            help="Requests answered from the cache/store tier",
        )
        self._m_coalesced = tel.counter(
            "respect_coalesced_total",
            help="Requests that attached to an in-flight identical solve",
        )
        self._m_batches = tel.counter(
            "respect_batches_total", help="Scheduler batches solved"
        )
        self._m_scheduled = tel.counter(
            "respect_scheduled_graphs_total",
            help="Unique graphs solved by the scheduler",
        )
        self._m_swaps = tel.counter(
            "respect_swaps_total", help="Scheduler hot-swaps"
        )
        self._m_listener_errors = tel.counter(
            "respect_listener_errors_total",
            help="Serve-listener exceptions swallowed (first is logged)",
        )
        self._m_tier_lookups = {
            tier: tel.counter(
                "respect_tier_lookups_total",
                help="Cache/store lookups by answering tier",
                tier=tier,
            )
            for tier in ("memory", "disk", "miss")
        }
        self._m_latency = tel.histogram(
            "respect_request_latency_seconds",
            help="Per-request service latency (submit -> result)",
        )
        self._m_deadline = {
            outcome: tel.counter(
                "respect_deadline_outcomes_total",
                help="Deadline-carrying requests by hit/miss at resolve",
                outcome=outcome,
            )
            for outcome in ("hit", "miss")
        }

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        fingerprint: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> "Future[ScheduleResult]":
        """Accept one request; returns a future resolving to its result.

        Cache hits resolve the future before ``submit`` returns; misses
        are queued for the micro-batching worker (identical in-flight
        requests are coalesced onto one solve).

        ``fingerprint`` lets a front tier that already fingerprinted the
        graph (the sharded router hashes it to pick a shard) skip the
        recompute; it must equal ``graph_fingerprint(graph)``.

        ``deadline_ms`` is a per-request wall-clock budget, honored when
        the mounted scheduler exposes ``schedule_with_deadline`` (e.g.
        :class:`~repro.portfolio.anytime.AnytimePortfolio`): the worker
        solves such requests individually with whatever budget remains
        after queueing, and anytime (incomplete) answers are served but
        *not* published to the cache/store tier — a 1 ms best-effort
        schedule must never become the fingerprint's canonical entry.
        Deadline hit/miss outcomes are counted under
        ``respect_deadline_outcomes_total``.  Schedulers without the
        hook ignore the budget.  Cache hits trivially satisfy any
        deadline; requests that coalesce onto an in-flight solve share
        its pacing.

        Futures of requests that coalesced onto an in-flight solve carry
        ``future._respect_coalesced = True`` — the marker admission and
        reuse-accounting layers use to tell "created new solver work"
        from "shared an existing solve".
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServiceError(f"deadline_ms must be positive, got {deadline_ms}")
        (stages,) = normalize_stage_counts(num_stages, 1)
        start = time.perf_counter()
        # Fingerprinting is the expensive part of the key; stay unlocked.
        if fingerprint is None:
            fingerprint = graph_fingerprint(graph)
        # Join the caller's active request span (the sharded tier roots
        # one before routing here), or root a fresh sampled trace when
        # this service is the entry point.  ``span`` stays None when
        # tracing is off or the trace is unsampled.
        span = None
        owns_span = False
        tracer = self.telemetry.tracer
        if tracer is not None:
            span = current_span()
            # Sampling is decided before the root span's attributes are
            # built, so unsampled requests pay one PRNG draw and nothing
            # else on the serve path.
            if span is None and tracer.sample():
                span = (
                    self.telemetry.root_span(
                        "request",
                        # Racy by design: across a concurrent hot swap
                        # the span may carry the old or new label, both
                        # truthful; the cache key reads under the lock.
                        method=self.method_name,  # repro: unlocked-ok
                        fingerprint=fingerprint[:12],
                        num_stages=stages,
                    )
                    or None
                )
                # This submit rooted the trace: end the span when the
                # request future resolves (on whichever thread that
                # happens); a span joined from an outer tier is ended
                # by that tier instead.
                owns_span = span is not None
        future: "Future[ScheduleResult]" = Future()
        lookup_start = time.time()
        with self._cond:
            if self._closed:
                raise ServiceError("service is closed")
            # The options key is read under the lock so a request
            # submitted after a hot-swap can never key onto (or coalesce
            # with) the previous scheduler's entries.
            key = ScheduleCache.make_key(fingerprint, stages, self._options_key)
            method_name = self.method_name
            self._m_requests.inc()
            # Check in-flight before the cache: the worker publishes to
            # the cache *before* retiring the in-flight entry, so under
            # this lock a key is always in at least one of the two once
            # first submitted — no duplicate-solve window.
            pending = self._inflight.get(key)
            if pending is not None:
                self._m_coalesced.inc()
                pending.waiters.append((future, graph, start, span))
                # Marker for admission layers: this request created no
                # new solver work (it shares the in-flight solve).
                future._respect_coalesced = True  # type: ignore[attr-defined]
                self._cond.notify_all()
                if span is not None:
                    span.add_event("coalesced")
                    if owns_span:
                        future.add_done_callback(
                            lambda _f, _s=span: _s.end()
                        )
                return future
            cached, tier = self.cache.lookup(key)
            tier = tier or "miss"
            self._m_tier_lookups[tier].inc()
            if cached is None:
                pending = _PendingRequest(
                    key, graph, stages, deadline_ms=deadline_ms, submit_time=start
                )
                pending.waiters.append((future, graph, start, span))
                self._inflight[key] = pending
                self._queue.append(pending)
                self._ensure_worker_locked()
                self._cond.notify_all()
                if span is not None:
                    tracer.record_span(
                        "lookup", lookup_start, time.time(),
                        span.trace_id, span.span_id, attrs={"tier": tier},
                    )
                    if owns_span:
                        future.add_done_callback(
                            lambda _f, _s=span: _s.end()
                        )
                return future
            self._m_cache_hits.inc()
        if span is not None:
            tracer.record_span(
                "lookup", lookup_start, time.time(),
                span.trace_id, span.span_id, attrs={"tier": tier},
            )
        # Cache hit: rebind to the caller's graph outside the lock.
        result = self._bind(
            cached,
            graph,
            cache_hit=True,
            lookup_seconds=time.perf_counter() - start,
            method_name=method_name,
        )
        if deadline_ms is not None:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            outcome = "hit" if elapsed_ms <= deadline_ms else "miss"
            self._m_deadline[outcome].inc()
        self._m_latency.observe(time.perf_counter() - start)
        self._notify(graph, stages, result)
        future.set_result(result)
        if owns_span:
            span.end()
        return future

    def backlog(self) -> int:
        """Unique solves currently queued or in flight on the worker."""
        with self._cond:
            return len(self._inflight)

    def has_cached(self, fingerprint: str, num_stages: int) -> bool:
        """Whether a request would be answered without new solver work.

        True when the ``(fingerprint, num_stages)`` pair — under the
        *current* options fingerprint — is already cached or in flight
        (an in-flight hit coalesces onto the pending solve; neither
        consumes a worker slot).  A non-mutating probe: no LRU refresh,
        no hit/miss counting.  The sharded tier's admission control uses
        it to wave such requests past a saturated shard's queue-depth
        gate.
        """
        with self._cond:
            if self._closed:
                return False
            key = ScheduleCache.make_key(
                fingerprint, num_stages, self._options_key
            )
            return key in self._inflight or key in self.cache

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _ensure_worker_locked(self) -> None:
        # Caller holds self._cond.
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="scheduling-service-worker",
                daemon=True,
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        idle_deadline = time.perf_counter() + _WORKER_IDLE_S
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    remaining = idle_deadline - time.perf_counter()
                    if remaining <= 0:
                        # Idle long enough: retire (under the lock, so a
                        # concurrent submit either sees us alive or
                        # starts a fresh worker — never neither).
                        self._worker = None
                        return
                    self._cond.wait(timeout=remaining)
                if not self._queue:
                    if self._closed:
                        return
                    continue
                batch = [self._queue.popleft()]
                deadline = time.perf_counter() + self.batch_window_s
                while len(batch) < self.max_batch_size:
                    if self._queue:
                        batch.append(self._queue.popleft())
                        continue
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or self._closed:
                        break
                    self._cond.wait(timeout=remaining)
                # Snapshot the scheduler under the lock: the whole batch
                # is solved — and its cache entries published — by
                # exactly one scheduler version even if a hot-swap lands
                # mid-solve, so no request is ever served a torn mix of
                # two policies.
                scheduler = self.scheduler
                options_key = self._options_key
                method_name = self.method_name
            self._solve_batch(batch, scheduler, options_key, method_name)
            idle_deadline = time.perf_counter() + _WORKER_IDLE_S

    def _solve_batch(
        self,
        batch: List[_PendingRequest],
        scheduler: object,
        options_key: str,
        method_name: str,
    ) -> None:
        graphs = [request.graph for request in batch]
        counts = [request.num_stages for request in batch]
        # Sampled request spans attached at solve start; later coalescers
        # still get results, just no solve span (their trace shows the
        # coalesced event instead).
        tracer = self.telemetry.tracer
        parent_spans: List[object] = []
        if tracer is not None:
            with self._cond:
                parent_spans = [
                    waiter[3]
                    for request in batch
                    for waiter in request.waiters
                    if waiter[3] is not None
                ]
        solve_span = None
        if parent_spans:
            # One live solve span under the first sampled request; the
            # other sampled requests in the batch get mirrored records
            # below (a batch solve genuinely is one shared operation).
            solve_span = tracer.span(
                "solve",
                parent=parent_spans[0],
                batch_size=len(batch),
                method=method_name,
            )
        solve_start = time.time()
        try:
            # Activating the solve span lets the decode-pool adapter
            # (and any other in-scheduler instrumentation) attach its
            # worker round-trip sub-spans via current_span().
            activation = (
                solve_span.activate() if solve_span is not None else None
            )
            try:
                if activation is not None:
                    activation.__enter__()
                batched = getattr(scheduler, "schedule_batch", None)
                with_deadline = getattr(scheduler, "schedule_with_deadline", None)
                has_deadlines = callable(with_deadline) and any(
                    request.deadline_ms is not None for request in batch
                )
                if has_deadlines:
                    # Deadline requests are paced individually: each
                    # gets whatever wall-clock budget queueing left it
                    # (floored at 1 ms so a late request still races the
                    # fast lanes instead of erroring).
                    results: List[ScheduleResult] = []
                    for request in batch:
                        if request.deadline_ms is None:
                            results.append(
                                scheduler.schedule(  # type: ignore[attr-defined]
                                    request.graph, request.num_stages
                                )
                            )
                            continue
                        waited_ms = (
                            time.perf_counter() - request.submit_time
                        ) * 1000.0
                        remaining_ms = max(1.0, request.deadline_ms - waited_ms)
                        results.append(
                            with_deadline(
                                request.graph, request.num_stages, remaining_ms
                            )
                        )
                elif callable(batched) and len(batch) > 1:
                    results = batched(graphs, counts)
                else:
                    results = [
                        scheduler.schedule(graph, stages)  # type: ignore[attr-defined]
                        for graph, stages in zip(graphs, counts)
                    ]
            finally:
                if activation is not None:
                    activation.__exit__(None, None, None)
            if len(results) != len(batch):
                raise ServiceError(
                    f"scheduler returned {len(results)} results for a "
                    f"batch of {len(batch)}"
                )
        except BaseException as exc:  # propagate to every waiter
            if solve_span is not None:
                solve_span.set_attr("error", repr(exc))
                solve_span.end(status="error")
            with self._cond:
                waiters = []
                for request in batch:
                    self._inflight.pop(request.key, None)
                    # Take ownership of the waiters under the lock:
                    # a concurrent close() failing pending requests
                    # empties the same lists, so each future is resolved
                    # by exactly one of the two paths.
                    waiters.extend(request.waiters)
                    request.waiters = []
            for future, _, _, _ in waiters:
                if not future.done():
                    future.set_exception(exc)
            return
        solve_end = time.time()
        if solve_span is not None:
            solve_span.end()
            for extra in parent_spans[1:]:
                tracer.record_span(
                    "solve",
                    solve_start,
                    solve_end,
                    extra.trace_id,
                    extra.span_id,
                    attrs={
                        "batch_size": len(batch),
                        "method": method_name,
                        "shared": True,
                    },
                )
        self._m_batches.inc()
        self._m_scheduled.inc(len(batch))
        # Provenance carried into the persistent tier: which scheduler
        # configuration produced these entries and (for pool-decoded
        # schedulers) which published weights epoch — the audit trail
        # behind durable promotion invalidation.
        provenance: Dict[str, object] = {"options_fingerprint": options_key}
        epoch = getattr(scheduler, "epoch", None)
        if isinstance(epoch, int):
            provenance["weights_epoch"] = epoch
        for request, result in zip(batch, results):
            result.extras.setdefault("cache_hit", False)
            result.extras.setdefault("service", method_name)
            if request.deadline_ms is not None:
                elapsed_ms = (
                    time.perf_counter() - request.submit_time
                ) * 1000.0
                outcome = "hit" if elapsed_ms <= request.deadline_ms else "miss"
                self._m_deadline[outcome].inc()
                result.extras.setdefault("service_deadline_ms", request.deadline_ms)
                result.extras["service_deadline_hit"] = outcome == "hit"
            # Anytime answers that did not run every lane to completion
            # are deadline-shaped, not canonical: serve them, but keep
            # them out of the cache/store tier so the next request for
            # this fingerprint re-solves at full quality.
            publishable = bool(result.extras.get("anytime_complete", True))
            payload = CachedSchedule(
                assignment=dict(result.schedule.assignment),
                num_stages=request.num_stages,
                method=result.method,
                objective=result.objective,
                status=result.status,
                solve_time=result.solve_time,
                provenance=provenance,
            )
            # Publish to the cache *before* retiring the in-flight entry
            # so a concurrent submit always finds the key in one of the
            # two (no duplicate solve window).  The entry is published
            # under the options key of the scheduler that actually
            # solved the batch: after a mid-flight hot-swap the request
            # key's (pre-swap) options fingerprint no longer describes
            # this result, and a fresh key is derived instead.
            publish_key = (
                request.key
                if request.key[2] == options_key
                else ScheduleCache.make_key(
                    request.key[0], request.num_stages, options_key
                )
            )
            publish_start = time.time()
            if publishable:
                self.cache.put(publish_key, payload)
            publish_end = time.time()
            now = time.perf_counter()
            with self._cond:
                self._inflight.pop(request.key, None)
                # Ownership transfer (see the error path above): a
                # concurrent close() must never race us to these futures.
                waiters = request.waiters
                request.waiters = []
            for _, _, submitted, _ in waiters:
                self._m_latency.observe(now - submitted)
            for future, waiter_graph, _, waiter_span in waiters:
                if waiter_span is not None and tracer is not None:
                    tracer.record_span(
                        "publish",
                        publish_start,
                        publish_end,
                        waiter_span.trace_id,
                        waiter_span.span_id,
                        attrs={
                            "key": publish_key[0][:12],
                            "published": publishable,
                        },
                    )
                if waiter_graph is result.schedule.graph:
                    served = result
                else:
                    served = self._bind(
                        payload,
                        waiter_graph,
                        cache_hit=False,
                        method_name=method_name,
                    )
                self._notify(waiter_graph, request.num_stages, served)
                if not future.done():
                    future.set_result(served)

    # ------------------------------------------------------------------
    def _bind(
        self,
        payload: CachedSchedule,
        graph: ComputationalGraph,
        cache_hit: bool,
        lookup_seconds: float = 0.0,
        *,
        method_name: str,
    ) -> ScheduleResult:
        """Materialize a cached payload against the caller's graph.

        ``method_name`` is required (callers read it under the lock at
        submit time) so this helper never touches hot-swappable service
        state outside a lock context.
        """
        schedule = Schedule(graph, payload.num_stages, dict(payload.assignment))
        return ScheduleResult(
            schedule=schedule,
            solve_time=lookup_seconds if cache_hit else payload.solve_time,
            method=payload.method,
            objective=payload.objective,
            status=payload.status,
            extras={
                "cache_hit": cache_hit,
                "service": method_name,
                "solver_seconds": payload.solve_time,
            },
        )

    # ------------------------------------------------------------------
    # hot swap / observers
    # ------------------------------------------------------------------
    def _wrap_scheduler(self, scheduler: object) -> object:
        """Route ``scheduler``'s decode through the decode pool, if any.

        No-op without a pool, for schedulers the pool cannot serve
        (heuristic baselines fall back to in-process decoding), and for
        already-wrapped adapters.  Otherwise the scheduler's weights are
        published as a fresh epoch and a bit-identical
        :class:`~repro.service.workers.WorkerDecodeScheduler` is
        returned — the hot-swap path goes through here too, which is how
        ``swap_scheduler`` / ``promote_challenger`` atomically retarget
        every worker in the pool.
        """
        if self._decode_pool is None:
            return scheduler
        from repro.service.workers import (
            WorkerDecodeScheduler,
            supports_worker_decode,
        )

        if not supports_worker_decode(scheduler):
            return scheduler
        epoch = self._decode_pool.publish_scheduler(scheduler)
        return WorkerDecodeScheduler(scheduler, self._decode_pool, epoch)

    def swap_scheduler(self, scheduler: object) -> str:
        """Atomically replace the scheduler behind this service.

        The champion/challenger promotion path: once the new scheduler is
        installed, every subsequent :meth:`submit` keys requests under
        its options fingerprint, so stale cached schedules are naturally
        keyed out (evict them eagerly with
        :meth:`ScheduleCache.invalidate_options` using the returned old
        key).  Requests already queued or in flight are solved entirely
        by whichever scheduler version the worker snapshots for their
        batch — each request is served bit-identically by exactly one of
        the two versions, never a torn mix.

        Returns the *previous* options fingerprint.
        """
        if not callable(getattr(scheduler, "schedule", None)):
            raise ServiceError(
                "scheduler must expose a schedule(graph, num_stages) method"
            )
        # Publishing to the decode pool and the weight digest are both
        # O(model size); do them outside the lock.
        scheduler = self._wrap_scheduler(scheduler)
        options_key = scheduler_options_key(scheduler)
        method_name = str(
            getattr(scheduler, "method_name", type(scheduler).__name__)
        )
        with self._cond:
            if self._closed:
                raise ServiceError("service is closed")
            old_key = self._options_key
            self.scheduler = scheduler
            self.method_name = method_name
            self._options_key = options_key
            self._m_swaps.inc()
            self._cond.notify_all()
        return old_key

    def add_serve_listener(
        self, listener: Callable[[ComputationalGraph, int, ScheduleResult], None]
    ) -> None:
        """Register ``listener(graph, num_stages, result)`` per serve.

        Called once per resolved request (cache hits included) with the
        caller's own graph and the result it received — the hook the
        online-adaptation experience recorder attaches to.  Listeners run
        on the serving thread outside the service lock; exceptions are
        swallowed so a faulty observer can never fail a request, but
        never silently: each one increments
        ``ServiceStats.listener_errors`` and the first is logged.
        """
        if not callable(listener):
            raise ServiceError("serve listener must be callable")
        with self._cond:
            self._listeners.append(listener)

    def remove_serve_listener(self, listener: Callable) -> None:
        """Detach a previously registered listener (missing ones no-op)."""
        with self._cond:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(
        self, graph: ComputationalGraph, num_stages: int, result: ScheduleResult
    ) -> None:
        with self._cond:
            listeners = list(self._listeners)
        notify_serve_listeners(
            listeners, graph, num_stages, result, self._record_listener_error
        )

    def _record_listener_error(self) -> bool:
        # The cond lock serializes increment-then-read so exactly one
        # caller observes the count at 1 (and logs the traceback).
        with self._cond:
            self._m_listener_errors.inc()
            return self._m_listener_errors.value == 1

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot of counters, batch sizes and service latency.

        A view over the registry instruments: the numbers here are the
        same ones :meth:`~repro.obs.MetricsRegistry.render_prometheus`
        exposes, read from the same objects.
        """
        requests = self._m_requests.value
        hits = self._m_cache_hits.value
        batches = self._m_batches.value
        scheduled = self._m_scheduled.value
        latency = self._m_latency.snapshot()
        return ServiceStats(
            requests=requests,
            cache_hits=hits,
            coalesced=self._m_coalesced.value,
            batches=batches,
            scheduled_graphs=scheduled,
            mean_batch_size=scheduled / batches if batches else 0.0,
            hit_rate=hits / requests if requests else 0.0,
            latency_mean_s=latency.mean,
            latency_p50_s=latency.percentile(50) if latency.count else 0.0,
            latency_p99_s=latency.percentile(99) if latency.count else 0.0,
            cache=self.cache.stats(),
            swaps=self._m_swaps.value,
            listener_errors=self._m_listener_errors.value,
        )

    def latency_snapshot(self):
        """Merge-ready snapshot of the registry latency histogram.

        The sharded front tier pools these per-shard snapshots (bucket
        counts merge losslessly; raw percentiles do not compose) to
        compute tier-wide p50/p99.
        """
        return self._m_latency.snapshot()

    def invalidate_options(self, options_key: str) -> int:
        """Evict this service's cache entries under ``options_key``.

        Convenience over ``service.cache.invalidate_options`` so callers
        (the promotion path) can invalidate uniformly across single and
        sharded services; returns the number of evicted entries.
        """
        return self.cache.invalidate_options(options_key)

    @property
    def schedule_store(self) -> Optional[DiskScheduleStore]:
        """The persistent store behind this service (None when memory-only)."""
        disk = self.cache.disk
        return disk.store if disk is not None else None

    def snapshot(self):
        """Persist the mounted store's index (see ``DiskScheduleStore``).

        Raises :class:`ServiceError` when the store is memory-only
        (nothing durable to snapshot).  Appends are already flushed per
        put — a snapshot only bounds the replay a reopen has to do and
        fsyncs the segment tail.
        """
        return self.cache.snapshot()

    def restore(self, limit: Optional[int] = None) -> int:
        """Warm the in-memory tier from the persistent one (see
        :meth:`~repro.service.store.TieredScheduleStore.restore`).

        Returns the number of preloaded entries; ``0`` when the service
        has no persistent store (reads would not benefit).
        """
        return self.cache.restore(limit)

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests; drain what the worker can, fail the rest.

        New submits raise :class:`ServiceError` immediately.  The worker
        is given ``timeout`` seconds to finish already-accepted work;
        any future still unresolved after that (the worker timed out
        mid-solve, died, or the interpreter is tearing down) is failed
        with ``ServiceError("service closed")`` — **no future is ever
        left pending after close() returns**.  Idempotent: repeated
        calls are no-ops beyond re-failing whatever is still pending.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closed = True
            worker = self._worker
            self._cond.notify_all()
        if worker is not None and worker is not threading.current_thread():
            worker.join(timeout=timeout)
        self._fail_pending(ServiceError("service closed"))
        # An owned decode pool shares this close's deadline (the worker
        # join above consumed part of it) — a shared pool outlives us.
        if self._owns_decode_pool and self._decode_pool is not None:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            self._decode_pool.close(timeout=remaining)
        # An owned disk store is closed last (snapshots its index); a
        # store passed in via store= stays caller-owned and open.
        if self._owned_store is not None:
            self._owned_store.close()

    def _fail_pending(self, exc: Exception) -> None:
        """Resolve every still-pending waiter with ``exc``.

        Ownership of each request's waiter list is taken under the lock
        (mirroring the worker's resolution paths), so a waiter is
        resolved by exactly one of {worker success, worker error, close}
        even when a slow solve completes concurrently with close().
        """
        with self._cond:
            waiters: List[Tuple[Future, ComputationalGraph, float, object]] = []
            # Every queued request is also in _inflight (submit registers
            # both); batch-popped requests remain in _inflight until
            # resolved — so _inflight alone covers all pending work.
            for request in self._inflight.values():
                waiters.extend(request.waiters)
                request.waiters = []
            self._inflight.clear()
            self._queue.clear()
        for future, _, _, _ in waiters:
            if not future.done():
                future.set_exception(exc)


__all__ = [
    "SchedulingService",
    "ServiceStats",
    "ServingFacade",
    "scheduler_options_key",
]
