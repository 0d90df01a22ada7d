"""The scheduling service: fingerprint routing, caching, micro-batching.

:class:`SchedulingService` turns any scheduler with a
``schedule(graph, num_stages)`` method into a concurrent request server
of ``num_shards`` shards (one by default).  Each request is fingerprinted
once and routed by that fingerprint over a consistent-hash ring to one
shard; each shard keeps its own
:class:`~repro.service.store.TieredScheduleStore`, micro-batching worker
thread and hot-swap slot.  Three mechanisms amortize the per-request
cost inside a shard:

1. **Fingerprint cache** — requests are keyed by
   ``(graph_fingerprint, num_stages, scheduler options fingerprint)``;
   a previously solved graph is answered from the shard's store (an LRU
   over an optional disk tier) without touching the scheduler at all.
2. **In-flight coalescing** — concurrent identical requests (a thundering
   herd on a cache miss) share one solve: later submitters attach to the
   pending request instead of enqueuing a duplicate.
3. **Micro-batching** — distinct pending requests are aggregated by the
   shard's worker thread (up to ``max_batch_size``, waiting at most
   ``batch_window_s`` after the first) and routed through the
   scheduler's vectorized ``schedule_batch`` when it has one (the
   RESPECT batched decode engine); schedulers without a batched path
   fall back to a sequential loop on the worker.

Fingerprint routing keeps all three intact across shards:
content-identical graphs always land on the same shard (cache affinity,
and a herd converges on one shard's solve), and the ring's virtual nodes
make growing ``N`` to ``N+1`` shards remap only ``~1/(N+1)`` of the
fingerprint space.  With one shard the ring is skipped.

**Bounded admission.**  Each shard carries at most ``max_queue_depth``
unsolved unique requests (its *solver backlog*: waiters coalescing onto
one in-flight solve share its one slot, and requests answerable from the
store bypass the gate).  Beyond that the ``admission`` policy applies:
``"block"`` waits for the shard to drain (load is never lost; the
default), ``"shed"`` raises :class:`~repro.errors.ServiceOverloadError`,
and ``"degrade"`` answers inline from the ``portfolio`` degrade ladder,
or from its ``"floor"`` rung (a
:class:`~repro.scheduling.heuristics.ListScheduler`) without one, marking
the result ``extras["degraded"] = True``.

Served schedules are *bit-identical* to direct ``scheduler.schedule``
calls: the batched decode is equivalence-tested against the sequential
path, and cache keys are exactly as discriminating as the scheduler
(see :mod:`repro.graphs.fingerprint`).  Every result's schedule is bound
to the requesting caller's own graph object even when it was solved for
(or cached from) a content-identical twin.

The scheduler can be replaced without downtime via
:meth:`SchedulingService.swap_scheduler` (the online-adaptation
champion/challenger promotion path): each shard's worker snapshots its
scheduler per batch, so every request is served bit-identically by
exactly one policy version, and post-swap requests key onto the new
options fingerprint (evict the old entries with
:meth:`SchedulingService.invalidate_options`).  With several shards the
swap rolls shard by shard; every request submitted after it returns is
served by the new version.  Observers registered through
:meth:`SchedulingService.add_serve_listener` see every resolved request
— the hook the online experience recorder uses.
"""

from __future__ import annotations

import bisect
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

from repro.errors import ServiceError, ServiceOverloadError
from repro.graphs.dag import ComputationalGraph
from repro.graphs.fingerprint import graph_fingerprint
from repro.obs.metrics import HistogramSnapshot
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
#: drops the thread's reference to its shard, so an abandoned
#: (unclosed) service becomes garbage-collectable instead of leaking a
#: polling thread; the next submit restarts the worker transparently.
_WORKER_IDLE_S = 1.0

_ADMISSION_POLICIES = ("block", "shed", "degrade")

#: Ring points per shard.  64 virtual nodes keep the shard-load spread
#: within a few percent of uniform while the ring stays tiny (N*64
#: 8-byte points) and O(log) to search.
_VIRTUAL_NODES = 64

_SCALARS = (bool, int, float, str, bytes, type(None))


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


def _ring_hash(data: str) -> int:
    """Stable 64-bit position on the ring (first 8 SHA-256 bytes)."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_hash_ring(
    num_shards: int, virtual_nodes: int = _VIRTUAL_NODES
) -> Tuple[List[int], List[int]]:
    """Consistent-hash ring: sorted point positions + owning shard ids.

    Deterministic in ``num_shards``/``virtual_nodes`` alone — every
    process (and every test) derives the identical ring, so routing is
    reproducible across runs and machines.
    """
    if num_shards < 1:
        raise ServiceError(f"num_shards must be >= 1, got {num_shards}")
    if virtual_nodes < 1:
        raise ServiceError(
            f"virtual_nodes must be >= 1, got {virtual_nodes}"
        )
    points = sorted(
        (_ring_hash(f"shard:{shard}:vnode:{vnode}"), shard)
        for shard in range(num_shards)
        for vnode in range(virtual_nodes)
    )
    return [p for p, _ in points], [s for _, s in points]


def shard_for_fingerprint(
    fingerprint: str, ring: Tuple[List[int], List[int]]
) -> int:
    """Owning shard of a graph fingerprint on a :func:`build_hash_ring`."""
    positions, shards = ring
    index = bisect.bisect_right(positions, _ring_hash(fingerprint))
    return shards[index % len(shards)]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters and latency summary.

    A *view* over the service's metrics-registry instruments (see
    :mod:`repro.obs`): every counter here reads the same instrument the
    Prometheus/JSON exposition scrapes, so the two can never disagree.
    ``mean_batch_size`` averages over scheduler batches actually solved;
    latency percentiles come from merging the shards' latency histograms
    bucket by bucket (submit -> result available, cache hits included;
    exact counts compose, percentiles of percentiles would not).

    The service-level view sums its shards plus the degraded serves the
    front answers itself; ``per_shard`` holds one view per shard, whose
    front-only fields (``swaps``, ``listener_errors`` and the admission
    outcomes) read 0.  ``cache`` is the shard's store stats; with several
    shards the service-level ``cache`` is None (read
    ``per_shard[i].cache``: shards sharing one disk store would count its
    entries once per shard).
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
    cache: Optional[TieredStoreStats]
    #: Hot-swaps performed via :meth:`SchedulingService.swap_scheduler`.
    swaps: int = 0
    #: Serve-listener exceptions swallowed (the first occurrence is
    #: logged, every one is counted here so a broken observer — e.g.
    #: the online-adaptation recorder — can never fail *silently*).
    listener_errors: int = 0
    num_shards: int = 1
    admission: str = "block"
    max_queue_depth: int = 64
    #: Submissions that had to wait for a saturated shard ("block").
    blocked: int = 0
    #: Submissions rejected with ServiceOverloadError ("shed").
    shed: int = 0
    #: Submissions answered inline by the degrade ladder ("degrade").
    degraded: int = 0
    per_shard: Tuple["ServiceStats", ...] = ()


def _stats_view(
    requests: int,
    cache_hits: int,
    coalesced: int,
    batches: int,
    scheduled: int,
    latency: HistogramSnapshot,
    **fields: object,
) -> ServiceStats:
    """Derive the ratio and latency fields shared by both stats levels."""
    return ServiceStats(
        requests=requests,
        cache_hits=cache_hits,
        coalesced=coalesced,
        batches=batches,
        scheduled_graphs=scheduled,
        mean_batch_size=scheduled / batches if batches else 0.0,
        hit_rate=cache_hits / requests if requests else 0.0,
        latency_mean_s=latency.mean,
        latency_p50_s=latency.percentile(50) if latency.count else 0.0,
        latency_p99_s=latency.percentile(99) if latency.count else 0.0,
        **fields,
    )


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left before a ``time.monotonic()`` deadline (None: none)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


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


class _Shard:
    """One shard: queue, in-flight coalescing and micro-batching worker.

    Owned by a :class:`SchedulingService` and reachable as
    ``service.shards[i]``.  It answers from the store it is given,
    gates its own solver backlog, and reports every resolved request to
    the service's ``notify``; the service owns the store directory, the
    decode pool and the listeners.
    """

    def __init__(
        self,
        index: int,
        scheduler: object,
        store: TieredScheduleStore,
        telemetry: Telemetry,
        notify: Callable[[ComputationalGraph, int, ScheduleResult], None],
        max_batch_size: int,
        batch_window_s: float,
        max_queue_depth: int,
        admission: str,
    ) -> None:
        self.index = index
        self.cache = store
        self.telemetry = telemetry
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self.max_queue_depth = max_queue_depth
        self.admission = admission
        self._notify = notify
        self.scheduler = scheduler
        self.method_name = _method_name(scheduler)
        self._options_key = scheduler_options_key(scheduler)
        self._cond = threading.Condition()
        self._queue: Deque[_PendingRequest] = deque()
        self._inflight: Dict[CacheKey, _PendingRequest] = {}
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        self._m_requests = telemetry.counter(
            "respect_requests_total", help="Requests accepted by submit()"
        )
        self._m_cache_hits = telemetry.counter(
            "respect_cache_hits_total",
            help="Requests answered from the cache/store tier",
        )
        self._m_coalesced = telemetry.counter(
            "respect_coalesced_total",
            help="Requests that attached to an in-flight identical solve",
        )
        self._m_batches = telemetry.counter(
            "respect_batches_total", help="Scheduler batches solved"
        )
        self._m_scheduled = telemetry.counter(
            "respect_scheduled_graphs_total",
            help="Unique graphs solved by the scheduler",
        )
        self._m_tier_lookups = {
            tier: telemetry.counter(
                "respect_tier_lookups_total",
                help="Cache/store lookups by answering tier",
                tier=tier,
            )
            for tier in ("memory", "disk", "miss")
        }
        self._m_latency = telemetry.histogram(
            "respect_request_latency_seconds",
            help="Per-request service latency (submit -> result)",
        )
        self._m_deadline = {
            outcome: telemetry.counter(
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
        stages: int,
        fingerprint: str,
        deadline_ms: Optional[float],
        span: Optional[object],
    ) -> Tuple[Optional["Future[ScheduleResult]"], Optional[str]]:
        """Admit one validated request; returns ``(future, outcome)``.

        ``outcome`` is None for a plain admission, else ``"blocked"``
        (waited for the gate), ``"bypassed"`` (past a saturated gate:
        cached or coalescable), or ``"shed"`` / ``"degraded"`` (not
        admitted: no future, nothing counted here — the service answers
        or rejects it).  Cache hits resolve the future before returning;
        misses are queued for the worker (identical in-flight requests
        coalesce onto one solve, and their futures carry
        ``future._respect_coalesced = True`` — the marker
        reuse-accounting layers use to tell "created new solver work"
        from "shared an existing solve").
        """
        start = time.perf_counter()
        tracer = self.telemetry.tracer if span is not None else None
        admission_start = time.time() if tracer is not None else 0.0
        outcome: Optional[str] = None
        future: "Future[ScheduleResult]" = Future()
        with self._cond:
            if self._closed:
                raise ServiceError("service is closed")
            # The options key is read under the lock so a request
            # submitted after a hot-swap can never key onto (or coalesce
            # with) the previous scheduler's entries.
            key = ScheduleCache.make_key(fingerprint, stages, self._options_key)
            method_name = self.method_name
            # The gate bounds unsolved unique requests, not waiters, and
            # reads the backlog under the same lock that admits, so
            # racing submitters cannot jointly overshoot it.  A request
            # answerable without new solver work is waved past (the probe
            # races with eviction; a lost race admits one extra solve).
            while len(self._inflight) >= self.max_queue_depth:
                if key in self._inflight or key in self.cache:
                    outcome = outcome or "bypassed"
                    break
                if self.admission != "block":
                    outcome = "shed" if self.admission == "shed" else "degraded"
                    break
                outcome = "blocked"
                self._cond.wait()
                if self._closed:
                    raise ServiceError("service is closed")
            if tracer is not None:
                lookup_start = time.time()
                tracer.record_span(
                    "admission", admission_start, lookup_start,
                    span.trace_id, span.span_id,
                    attrs={"outcome": outcome or "admitted", "shard": self.index},
                )
            if outcome == "shed" or outcome == "degraded":
                return None, outcome
            self._m_requests.inc()
            # Check in-flight before the cache: the worker publishes to
            # the cache *before* retiring the in-flight entry, so under
            # this lock a key is always in at least one of the two once
            # first submitted — no duplicate-solve window.
            pending = self._inflight.get(key)
            if pending is not None:
                self._m_coalesced.inc()
                pending.waiters.append((future, graph, start, span))
                future._respect_coalesced = True  # type: ignore[attr-defined]
                self._cond.notify_all()
                if span is not None:
                    span.add_event("coalesced")
                return future, outcome
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
                if tracer is not None:
                    tracer.record_span(
                        "lookup", lookup_start, time.time(),
                        span.trace_id, span.span_id, attrs={"tier": tier},
                    )
                return future, outcome
            self._m_cache_hits.inc()
        if tracer is not None:
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
            outcome_key = "hit" if elapsed_ms <= deadline_ms else "miss"
            self._m_deadline[outcome_key].inc()
        self._m_latency.observe(time.perf_counter() - start)
        self._notify(graph, stages, result)
        future.set_result(result)
        return future, outcome

    def backlog(self) -> int:
        """Unique solves currently queued or in flight on the worker."""
        with self._cond:
            return len(self._inflight)

    def has_cached(self, fingerprint: str, num_stages: int) -> bool:
        """Whether a request would be answered without new solver work.

        True when the ``(fingerprint, num_stages)`` pair — under the
        *current* options fingerprint — is already cached or in flight.
        A non-mutating probe: no LRU refresh, no hit/miss counting.
        """
        with self._cond:
            if self._closed:
                return False
            key = ScheduleCache.make_key(
                fingerprint, num_stages, self._options_key
            )
            return key in self._inflight or key in self.cache

    def install(
        self, scheduler: object, options_key: str, method_name: str
    ) -> str:
        """Swap in ``scheduler`` under the lock; returns the old options key."""
        with self._cond:
            if self._closed:
                raise ServiceError("service is closed")
            old_key = self._options_key
            self.scheduler = scheduler
            self.method_name = method_name
            self._options_key = options_key
            self._cond.notify_all()
        return old_key

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _ensure_worker_locked(self) -> None:
        # Caller holds self._cond.
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop,
                name=f"scheduling-service-shard-{self.index}",
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
                self._cond.notify_all()  # backlog shrank: wake the gate
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
                self._cond.notify_all()  # backlog shrank: wake the gate
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
    @staticmethod
    def _bind(
        payload: CachedSchedule,
        graph: ComputationalGraph,
        cache_hit: bool,
        lookup_seconds: float = 0.0,
        *,
        method_name: str,
    ) -> ScheduleResult:
        """Materialize a cached payload against the caller's graph.

        ``method_name`` is required (callers read it under the lock at
        submit time) so this helper never touches hot-swappable shard
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
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """This shard's view over its own registry instruments."""
        return _stats_view(
            self._m_requests.value,
            self._m_cache_hits.value,
            self._m_coalesced.value,
            self._m_batches.value,
            self._m_scheduled.value,
            self._m_latency.snapshot(),
            cache=self.cache.stats(),
            admission=self.admission,
            max_queue_depth=self.max_queue_depth,
        )

    def stop(self) -> None:
        """Refuse new submits and wake the worker and gated submitters."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def join(self, timeout: Optional[float]) -> None:
        """Give the worker ``timeout`` seconds, then fail what is pending.

        Ownership of each request's waiter list is taken under the lock
        (mirroring the worker's resolution paths), so a waiter is
        resolved by exactly one of {worker success, worker error, close}
        even when a slow solve completes concurrently with close().
        """
        with self._cond:
            worker = self._worker
        if worker is not None and worker is not threading.current_thread():
            worker.join(timeout=timeout)
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
        closed = ServiceError("service closed")
        for future, _, _, _ in waiters:
            if not future.done():
                future.set_exception(closed)


def _method_name(scheduler: object) -> str:
    return str(getattr(scheduler, "method_name", type(scheduler).__name__))


class SchedulingService:
    """Thread-safe scheduling front-end over ``num_shards`` shards.

    Parameters
    ----------
    scheduler:
        Any object with ``schedule(graph, num_stages)``, installed on
        every shard; a vectorized ``schedule_batch(graphs,
        stage_counts)`` is used when present.  With several shards it
        must tolerate concurrent calls from their worker threads — true
        for :class:`~repro.rl.respect.RespectScheduler` (the decode is
        functional over read-only weights) and for every deterministic
        baseline heuristic.  For stateful schedulers pass
        ``scheduler_factory`` instead.
    scheduler_factory:
        Zero-argument callable producing one scheduler per shard
        (mutually exclusive with ``scheduler``).  It must produce
        equivalently-configured schedulers: bit-identical outputs and
        equal options fingerprints — otherwise the shard a request
        hashes to would change its answer.
    num_shards:
        Shard count (>= 1).  Requests are routed by graph fingerprint.
    max_queue_depth:
        Per-shard solver-backlog bound (unsolved unique requests)
        before the admission policy applies.
    admission:
        ``"block"`` (default) / ``"shed"`` / ``"degrade"`` — see the
        module docstring.
    portfolio:
        Optional :class:`~repro.portfolio.degrade.DegradeLadder` (any
        object with ``serve(graph, num_stages) -> (result, rung)``) that
        answers degraded requests; the answering rung lands in
        ``extras["degrade_rung"]`` and in the
        ``respect_degrade_rung_total{rung=...}`` counters.  If it also
        exposes ``observe(graph, num_stages, result)``, it is registered
        as a serve listener so full-quality serves warm its
        cached-nearest index.
    stores:
        Caller-owned :class:`~repro.service.store.TieredScheduleStore`
        per shard (``len == num_shards``), e.g. to keep warm stores
        across service generations.  Sharing one between services is
        safe because keys embed the scheduler options fingerprint;
        :meth:`close` leaves them open.  Mutually exclusive with
        ``store_dir``.
    store_dir:
        Open (or create) one persistent
        :class:`~repro.service.store.DiskScheduleStore` at this
        directory, owned by the service and closed with it; each shard
        stacks an LRU of ``cache_capacity`` entries over its namespace
        (:meth:`shard_namespace`).  The ring depends only on
        ``num_shards``, so a service reopened over the same directory
        with the same shard count serves previously solved graphs
        without re-solving (warm start).
    cache_capacity:
        Entries in each LRU tier the service builds itself (a
        memory-only store when neither ``stores`` nor ``store_dir`` is
        given); ignored with ``stores=``.
    max_batch_size / batch_window_s:
        Upper bound on requests aggregated into one scheduler batch, and
        how long a shard's worker waits for more after the first (``0``
        disables waiting).
    decode_workers:
        When positive, policy decodes of every shard run in one pool of
        that many worker *processes* (see
        :class:`repro.service.workers.DecodeWorkerPool`) — GIL-free
        scaling for RESPECT-style schedulers, with bit-identical
        schedules; weights are published once per scheduler generation.
        Schedulers the pool cannot run (heuristic baselines) stay
        in-process.  ``0`` (the default) decodes in-process.
    decode_pool:
        A pre-built (possibly shared) pool to use instead of owning one;
        mutually exclusive with a positive ``decode_workers``.  Shared
        pools are *not* closed by :meth:`close` — the owner closes them.
    telemetry:
        A :class:`~repro.obs.Telemetry` facade.  Shard ``i`` records its
        counters and latency histogram under a ``shard="<i>"`` child;
        admission outcomes, degraded serves, swaps and listener errors
        are counted once, under ``tier="front"``.  With a tracer set,
        each sampled request yields one span tree (request ->
        admission, route, lookup, solve, publish).  Defaults to a
        private metrics-only facade.

    Use as a context manager or call :meth:`close` to stop the workers;
    ``close`` drains already-accepted requests first.
    """

    def __init__(
        self,
        scheduler: Optional[object] = None,
        *,
        scheduler_factory: Optional[Callable[[], object]] = None,
        num_shards: int = 1,
        max_queue_depth: int = 64,
        admission: str = "block",
        portfolio: Optional[object] = None,
        stores: Optional[Sequence[TieredScheduleStore]] = None,
        store_dir: Optional[str] = None,
        cache_capacity: int = 1024,
        max_batch_size: int = 32,
        batch_window_s: float = 0.002,
        decode_workers: int = 0,
        decode_pool: Optional[object] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        # Every check runs before anything is acquired: a rejected
        # construction opens no store, builds no pool, publishes nothing.
        if num_shards < 1:
            raise ServiceError(f"num_shards must be >= 1, got {num_shards}")
        if max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if admission not in _ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown admission policy {admission!r}; choose from "
                f"{_ADMISSION_POLICIES}"
            )
        if max_batch_size < 1:
            raise ServiceError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if batch_window_s < 0:
            raise ServiceError(
                f"batch_window_s must be >= 0, got {batch_window_s}"
            )
        if cache_capacity < 1:
            raise ServiceError(
                f"cache capacity must be >= 1, got {cache_capacity}"
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
        if stores is not None:
            if store_dir is not None:
                raise ServiceError(
                    "pass either stores= (caller-owned) or store_dir= "
                    "(service-owned), not both"
                )
            if len(stores) != num_shards:
                raise ServiceError(
                    f"stores must have one entry per shard: got "
                    f"{len(stores)} for {num_shards} shards"
                )
            for store in stores:
                if not isinstance(store, TieredScheduleStore):
                    raise ServiceError(
                        f"stores= entries must be TieredScheduleStores, "
                        f"got {type(store).__name__}; wrap a ScheduleCache "
                        f"as TieredScheduleStore(memory=cache) and a "
                        f"DiskScheduleStore as "
                        f"TieredScheduleStore(disk=disk_store.namespace(name))"
                    )
        # Duck-typed so repro.service never imports repro.portfolio:
        # anything with the DegradeLadder serve() contract works.
        if portfolio is not None and not callable(
            getattr(portfolio, "serve", None)
        ):
            raise ServiceError(
                "portfolio must expose serve(graph, num_stages) -> "
                "(result, rung), e.g. repro.portfolio.DegradeLadder"
            )
        self.num_shards = num_shards
        schedulers = _make_schedulers(scheduler, scheduler_factory, num_shards)

        self.max_queue_depth = max_queue_depth
        self.admission = admission
        self.portfolio = portfolio
        # Without a ladder, "degrade" answers from the ladder's floor
        # rung alone.
        self._floor: Optional[object] = None
        if admission == "degrade" and portfolio is None:
            from repro.scheduling.heuristics import ListScheduler

            self._floor = ListScheduler()
        self._ring = build_hash_ring(num_shards) if num_shards > 1 else None
        self._owned_store: Optional[DiskScheduleStore] = None
        self._owns_decode_pool = decode_workers > 0
        self._decode_pool = decode_pool
        try:
            if stores is None:
                if store_dir is not None:
                    self._owned_store = DiskScheduleStore(store_dir)
                stores = [
                    TieredScheduleStore(
                        disk=(
                            self._owned_store.namespace(self.shard_namespace(i))
                            if self._owned_store is not None
                            else None
                        ),
                        memory_capacity=cache_capacity,
                    )
                    for i in range(num_shards)
                ]
            if decode_workers > 0:
                from repro.service.workers import DecodeWorkerPool

                self._decode_pool = DecodeWorkerPool(decode_workers)
            schedulers = self._wrap_schedulers(schedulers)
        except BaseException:
            self._release(None)
            raise

        self._lock = threading.Lock()
        #: Copy-on-write tuple: serves iterate it without the lock.
        self._listeners: Tuple[Callable, ...] = ()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.shards: Tuple[_Shard, ...] = tuple(
            _Shard(
                i,
                schedulers[i],
                stores[i],
                self.telemetry.child(shard=str(i)),
                self._notify,
                max_batch_size,
                batch_window_s,
                max_queue_depth,
                admission,
            )
            for i in range(num_shards)
        )
        # Admission outcomes and degraded serves happen before (or
        # instead of) any shard solve, so they are counted exactly once,
        # here, under the ``tier="front"`` label — as are swaps and
        # listener errors, which concern the whole service.
        front = self.telemetry.child(tier="front")
        self._front_telemetry = front
        self._m_admission = {
            outcome: front.counter(
                "respect_admission_outcomes_total",
                help="Admission-control outcomes at the front tier",
                outcome=outcome,
            )
            for outcome in ("blocked", "shed", "degraded")
        }
        # Degraded serves never reach a shard; counting them here keeps
        # "sum of respect_requests_total across series" equal to the
        # service's total served requests.
        self._m_front_requests = front.counter("respect_requests_total")
        self._m_swaps = front.counter(
            "respect_swaps_total", help="Scheduler hot-swaps"
        )
        self._m_listener_errors = front.counter(
            "respect_listener_errors_total",
            help="Serve-listener exceptions swallowed (first is logged)",
        )
        # Which ladder rung answered each degraded request.  The names
        # mirror repro.portfolio.degrade.LADDER_RUNGS (not imported
        # here — the service layer stays portfolio-free).
        self._m_degrade_rungs = {
            rung: front.counter(
                "respect_degrade_rung_total",
                help="Degraded serves by the ladder rung that answered",
                rung=rung,
            )
            for rung in ("policy", "heuristic", "cached_nearest", "floor")
        }
        if portfolio is not None and callable(getattr(portfolio, "observe", None)):
            # Full-quality serves warm the ladder's cached-nearest
            # index; the ladder itself skips results flagged degraded.
            self.add_serve_listener(portfolio.observe)

    # ------------------------------------------------------------------
    # schedulers and storage
    # ------------------------------------------------------------------
    def _wrap_schedulers(self, schedulers: List[object]) -> List[object]:
        """Route one scheduler generation's decode through the pool.

        No-op without a pool and for schedulers the pool cannot serve
        (heuristic baselines decode in-process).  Otherwise the weights
        are published once, as a fresh epoch shared by every shard's
        :class:`~repro.service.workers.WorkerDecodeScheduler` — the swap
        path goes through here too, which is how ``swap_scheduler``
        retargets every worker in the pool exactly once.
        """
        if self._decode_pool is None:
            return schedulers
        from repro.service.workers import (
            WorkerDecodeScheduler,
            supports_worker_decode,
        )

        epoch: Optional[int] = None
        wrapped = []
        for scheduler in schedulers:
            if supports_worker_decode(scheduler):
                if epoch is None:
                    epoch = self._decode_pool.publish_scheduler(scheduler)
                scheduler = WorkerDecodeScheduler(
                    scheduler, self._decode_pool, epoch
                )
            wrapped.append(scheduler)
        return wrapped

    def shard_namespace(self, shard_id: int) -> str:
        """Persistent-store namespace of shard ``shard_id`` (``store_dir=``).

        ``"default"`` for a one-shard service, ``"shard-<i>"`` for more —
        stable for a fixed shard count, which is what makes a reopened
        store warm: each fingerprint's shard depends only on
        ``num_shards``, and its namespace only on the shard id.
        """
        if self.num_shards == 1:
            return DEFAULT_NAMESPACE
        return f"shard-{shard_id}"

    @property
    def schedule_store(self) -> Optional[DiskScheduleStore]:
        """The persistent store behind shard 0 (None when memory-only).

        With ``store_dir=`` every shard shares this one store.
        """
        disk = self.shards[0].cache.disk
        return disk.store if disk is not None else None

    def snapshot(self):
        """Persist the index of every disk store behind the shards.

        Returns the first snapshot path; raises :class:`ServiceError`
        when the service is memory-only (nothing durable to snapshot).
        Appends are already flushed per put — a snapshot only bounds the
        replay a reopen has to do and fsyncs the segment tail.
        """
        disks = list(
            dict.fromkeys(
                shard.cache.disk.store
                for shard in self.shards
                if shard.cache.disk is not None
            )
        )
        if not disks:
            raise ServiceError(
                "this service has no persistent schedule store to snapshot "
                "(construct it with stores= or store_dir=)"
            )
        return [disk.snapshot() for disk in disks][0]

    def restore(self, limit: Optional[int] = None) -> int:
        """Warm every shard's memory tier from its persistent tier.

        ``limit`` bounds the preload *per shard* (default: each shard's
        LRU capacity).  Returns the total number of preloaded entries;
        ``0`` when the service is memory-only.
        """
        return sum(shard.cache.restore(limit) for shard in self.shards)

    def invalidate_options(self, options_key: str) -> int:
        """Evict ``options_key`` entries from every shard's store.

        Durable when disk-backed; returns the number of evicted entries.
        """
        return sum(
            shard.cache.invalidate_options(options_key)
            for shard in self.shards
        )

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def shard_index(
        self, graph_or_fingerprint: Union[ComputationalGraph, str]
    ) -> int:
        """Which shard a graph (or its fingerprint) routes to."""
        fingerprint = (
            graph_or_fingerprint
            if isinstance(graph_or_fingerprint, str)
            else graph_fingerprint(graph_or_fingerprint)
        )
        ring = self._ring
        return 0 if ring is None else shard_for_fingerprint(fingerprint, ring)

    def submit(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        deadline_ms: Optional[float] = None,
    ) -> "Future[ScheduleResult]":
        """Accept one request; returns a future resolving to its result.

        The graph is fingerprinted once and routed to its shard, where
        admission applies (see the module docstring).  Cache hits and
        degraded answers resolve the future before ``submit`` returns;
        misses are queued for the shard's worker.  Degraded answers
        carry ``extras["degraded"] = True`` plus
        ``extras["degrade_rung"]``.

        ``deadline_ms`` is a per-request wall-clock budget, honored when
        the mounted scheduler exposes ``schedule_with_deadline`` (e.g.
        :class:`~repro.portfolio.anytime.AnytimePortfolio`): the worker
        solves such requests individually with whatever budget remains
        after queueing, and anytime (incomplete) answers are served but
        *not* published to the cache/store tier — a 1 ms best-effort
        schedule must never become the fingerprint's canonical entry.
        Deadline hit/miss outcomes are counted under
        ``respect_deadline_outcomes_total``.  Schedulers without the
        hook ignore the budget.  Cache hits and degraded answers
        trivially satisfy any deadline; requests that coalesce onto an
        in-flight solve share its pacing.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServiceError(f"deadline_ms must be positive, got {deadline_ms}")
        (stages,) = normalize_stage_counts(num_stages, 1)
        # Fingerprinting is the expensive part of the key; stay unlocked.
        fingerprint = graph_fingerprint(graph)
        ring = self._ring
        shard_id = 0 if ring is None else shard_for_fingerprint(fingerprint, ring)
        shard = self.shards[shard_id]
        # Join the caller's active request span, or root a fresh sampled
        # trace.  ``span`` stays None when tracing is off or unsampled.
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
                        method=shard.method_name,  # repro: unlocked-ok
                        fingerprint=fingerprint[:12],
                        num_stages=stages,
                        shard=shard_id,
                    )
                    or None
                )
                owns_span = span is not None
        route_start = time.time() if span is not None else 0.0
        try:
            future, outcome = shard.submit(
                graph, stages, fingerprint, deadline_ms, span
            )
        except BaseException:
            if owns_span:
                span.end(status="error")
            raise
        if outcome is not None:
            counter = self._m_admission.get(outcome)
            if counter is not None:
                counter.inc()
            if outcome == "shed":
                if owns_span:
                    span.end(status="error")
                raise ServiceOverloadError(
                    f"shard {shard_id} is at its queue depth limit "
                    f"({self.max_queue_depth}); request shed"
                )
            if outcome == "degraded":
                return self._serve_degraded(graph, stages, span, owns_span)
        if span is not None:
            tracer.record_span(
                "route", route_start, time.time(),
                span.trace_id, span.span_id, attrs={"shard": shard_id},
            )
            if owns_span:
                # The root closes when the request resolves (hit futures
                # are already done; the callback then fires inline).
                future.add_done_callback(lambda _f, _s=span: _s.end())
        return future

    def _serve_degraded(
        self,
        graph: ComputationalGraph,
        stages: int,
        span: Optional[object],
        owns_span: bool,
    ) -> "Future[ScheduleResult]":
        """Answer inline from the degrade ladder (saturated shard).

        With a ``portfolio`` ladder the answer walks
        policy → heuristic → cached-nearest → floor and the winning rung
        is recorded in ``extras["degrade_rung"]`` plus the per-rung
        front counter; without one the floor rung answers alone.
        """
        solve_start = time.time()
        if self.portfolio is not None:
            result, rung = self.portfolio.serve(graph, stages)
        else:
            result, rung = self._floor.schedule(graph, stages), "floor"  # type: ignore[union-attr]
            result.extras["degrade_rung"] = rung
        served_by = str(result.method)
        self._m_front_requests.inc()
        rung_counter = self._m_degrade_rungs.get(rung)
        if rung_counter is None:
            # Custom ladders may invent rung names; get-or-create keeps
            # the per-rung accounting complete either way.
            rung_counter = self._front_telemetry.counter(
                "respect_degrade_rung_total", rung=rung
            )
            self._m_degrade_rungs[rung] = rung_counter
        rung_counter.inc()
        if span is not None:
            self.telemetry.tracer.record_span(
                "solve",
                solve_start,
                time.time(),
                span.trace_id,
                span.span_id,
                attrs={"degraded": True, "rung": rung},
            )
            if owns_span:
                span.end()
        result.extras["degraded"] = True
        result.extras.setdefault("cache_hit", False)
        result.extras.setdefault("service", served_by)
        future: "Future[ScheduleResult]" = Future()
        future.set_result(result)
        self._notify(graph, stages, result)
        return future

    def schedule(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        deadline_ms: Optional[float] = None,
    ) -> ScheduleResult:
        """Blocking single-request convenience (same result as direct)."""
        return self.submit(graph, num_stages, deadline_ms).result()

    def schedule_batch(
        self,
        graphs: Sequence[ComputationalGraph],
        num_stages: Union[int, Sequence[int]],
    ) -> List[ScheduleResult]:
        """Submit a whole burst and gather results in order.

        Duck-type compatible with
        :meth:`repro.rl.respect.RespectScheduler.schedule_batch`, which
        lets a service drop into :func:`repro.flow.compare.schedule_many`
        and friends as a scheduler.  All requests enter the queues
        before the first gather, so workers naturally aggregate them
        into micro-batches.
        """
        graphs = list(graphs)
        stage_counts = normalize_stage_counts(num_stages, len(graphs))
        futures = [
            self.submit(graph, stages)
            for graph, stages in zip(graphs, stage_counts)
        ]
        return [future.result() for future in futures]

    async def asubmit(
        self, graph: ComputationalGraph, num_stages: int
    ) -> ScheduleResult:
        """Async facade over ``submit``.

        ``submit`` itself is dispatched through the event loop's default
        executor (it can block behind the ``"block"`` admission policy
        and must never stall the loop), and the returned future is
        bridged to an awaitable.  The result is the same bit-identical
        :class:`ScheduleResult` the sync path serves.  ``asyncio`` is
        imported here, on first use: it pulls in ``ssl`` and ``socket``,
        which neither the sync path nor a decode worker needs.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            None, self.submit, graph, num_stages
        )
        return await asyncio.wrap_future(future)

    def backlog(self) -> int:
        """Total solver backlog (unsolved unique requests) over all shards."""
        return sum(shard.backlog() for shard in self.shards)

    # ------------------------------------------------------------------
    # hot swap / observers
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> object:
        """The installed scheduler (all shards run one version).

        Shards only change schedulers through :meth:`swap_scheduler`,
        which installs equivalently-configured instances everywhere, so
        shard 0's scheduler is representative — the property the
        online-adaptation loop reads the champion from.
        """
        return self.shards[0].scheduler

    @property
    def method_name(self) -> str:
        """The installed scheduler's method name (duck-types a scheduler)."""
        return self.shards[0].method_name

    def swap_scheduler(
        self,
        scheduler: Optional[object] = None,
        *,
        scheduler_factory: Optional[Callable[[], object]] = None,
    ) -> str:
        """Atomically replace the scheduler behind every shard.

        The champion/challenger promotion path.  Once a shard has the
        new scheduler, every subsequent request it admits keys under the
        new options fingerprint, so stale cached schedules are keyed out
        (evict them eagerly with :meth:`invalidate_options` using the
        returned old key).  Requests already queued or in flight are
        solved entirely by whichever version the shard's worker
        snapshots for their batch — each request is served
        bit-identically by exactly one of the two versions, never a torn
        mix.  With several shards the cutover rolls shard by shard;
        every request submitted after this method returns is served by
        the new version.  Weights are published to the decode pool once.

        Returns the *previous* options fingerprint.
        """
        schedulers = _make_schedulers(
            scheduler, scheduler_factory, self.num_shards
        )
        # Publishing to the decode pool and the weight digest are both
        # O(model size); do them outside every lock.
        schedulers = self._wrap_schedulers(schedulers)
        old_keys = [
            shard.install(
                incoming,
                scheduler_options_key(incoming),
                _method_name(incoming),
            )
            for shard, incoming in zip(self.shards, schedulers)
        ]
        self._m_swaps.inc()
        return old_keys[0]

    def add_serve_listener(
        self, listener: Callable[[ComputationalGraph, int, ScheduleResult], None]
    ) -> None:
        """Register ``listener(graph, num_stages, result)`` per serve.

        Called once per resolved request (cache hits and degraded
        answers included) with the caller's own graph and the result it
        received — the hook the online-adaptation experience recorder
        attaches to.  Listeners run on the serving thread outside every
        service lock; exceptions are swallowed so a faulty observer can
        never fail a request, but never silently: each one increments
        ``ServiceStats.listener_errors`` and the first is logged.
        """
        if not callable(listener):
            raise ServiceError("serve listener must be callable")
        with self._lock:
            self._listeners = self._listeners + (listener,)

    def remove_serve_listener(self, listener: Callable) -> None:
        """Detach a previously registered listener (missing ones no-op)."""
        with self._lock:
            listeners = list(self._listeners)
            if listener in listeners:
                listeners.remove(listener)
                self._listeners = tuple(listeners)

    def _notify(
        self, graph: ComputationalGraph, num_stages: int, result: ScheduleResult
    ) -> None:
        # Reads the immutable tuple add/remove replace under the lock.
        for listener in self._listeners:  # repro: unlocked-ok
            try:
                listener(graph, num_stages, result)
            except Exception:
                if self._record_listener_error():
                    _LOGGER.exception(
                        "serve listener %r raised; the exception is "
                        "swallowed (the request was still served) and "
                        "counted in the service's listener_errors stat — "
                        "further listener failures are counted but not "
                        "logged",
                        listener,
                    )

    def _record_listener_error(self) -> bool:
        # The lock serializes increment-then-read so exactly one caller
        # observes the count at 1 (and logs the traceback).
        with self._lock:
            self._m_listener_errors.inc()
            return self._m_listener_errors.value == 1

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot of counters, batch sizes, latency and admission.

        A view over the registry instruments: the numbers here are the
        same ones :meth:`~repro.obs.MetricsRegistry.render_prometheus`
        exposes, read from the same objects.
        """
        per_shard = tuple(shard.stats() for shard in self.shards)
        latency = HistogramSnapshot.merged(
            [shard._m_latency.snapshot() for shard in self.shards]
        )
        degraded = self._m_admission["degraded"].value
        return _stats_view(
            sum(s.requests for s in per_shard) + self._m_front_requests.value,
            sum(s.cache_hits for s in per_shard),
            sum(s.coalesced for s in per_shard),
            sum(s.batches for s in per_shard),
            sum(s.scheduled_graphs for s in per_shard),
            latency,
            cache=per_shard[0].cache if self.num_shards == 1 else None,
            swaps=self._m_swaps.value,
            listener_errors=self._m_listener_errors.value,
            num_shards=self.num_shards,
            admission=self.admission,
            max_queue_depth=self.max_queue_depth,
            blocked=self._m_admission["blocked"].value,
            shed=self._m_admission["shed"].value,
            degraded=degraded,
            per_shard=per_shard,
        )

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests; drain what the workers can, fail the rest.

        New submits raise :class:`ServiceError` immediately, and
        submitters blocked on admission are woken and raise it too.
        ``timeout`` is one shared drain deadline for the whole service
        (shard workers, then an owned decode pool) — never a per-shard
        allowance; any future still unresolved after it is failed with
        ``ServiceError("service closed")``, so **no future is ever left
        pending after close() returns**.  An owned disk store is closed
        last; caller-owned stores stay open.  Idempotent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self.shards:
            shard.stop()
        for shard in self.shards:
            shard.join(_remaining(deadline))
        self._release(deadline)

    def _release(self, deadline: Optional[float]) -> None:
        """Close what the service owns: its decode pool, then its store."""
        if self._owns_decode_pool and self._decode_pool is not None:
            self._decode_pool.close(timeout=_remaining(deadline))
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(timeout=0.1)
        except (AttributeError, TypeError, RuntimeError, ImportError):
            # Expected only for a construction that raised (attributes
            # missing) and for interpreter-shutdown races: module
            # globals may already be None (AttributeError/TypeError),
            # thread primitives unusable (RuntimeError), and imports
            # forbidden (ImportError).  Anything else is a real bug in
            # close() and must surface, not be masked by __del__.
            pass


def _make_schedulers(
    scheduler: Optional[object],
    scheduler_factory: Optional[Callable[[], object]],
    count: int,
) -> List[object]:
    """One scheduler per shard, each checked for a ``schedule`` method."""
    if (scheduler is None) == (scheduler_factory is None):
        raise ServiceError(
            "supply exactly one of scheduler= or scheduler_factory="
        )
    schedulers = (
        [scheduler] * count
        if scheduler is not None
        else [scheduler_factory() for _ in range(count)]  # type: ignore[misc]
    )
    for made in schedulers:
        if not callable(getattr(made, "schedule", None)):
            raise ServiceError(
                "scheduler must expose a schedule(graph, num_stages) method"
            )
    return schedulers


__all__ = [
    "SchedulingService",
    "ServiceStats",
    "build_hash_ring",
    "scheduler_options_key",
    "shard_for_fingerprint",
]
