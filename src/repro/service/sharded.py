"""Sharded serving tier: consistent-hash fan-out over service shards.

:class:`ShardedSchedulingService` scales the single-worker
:class:`~repro.service.SchedulingService` horizontally: requests are
routed by **graph fingerprint** over a consistent-hash ring onto ``N``
fully independent shards, each keeping its own
:class:`~repro.service.TieredScheduleStore`, micro-batching worker and
hot-swap slot.  Three properties fall out of fingerprint routing:

* **cache affinity** — content-identical graphs always land on the same
  shard, so shard-private caches lose nothing versus one shared cache
  (and drop its lock contention);
* **coalescing still works** — a thundering herd on one graph converges
  on one shard and shares one solve there;
* **elastic resharding** — the ring uses virtual nodes, so growing the
  tier from ``N`` to ``N+1`` shards remaps only ``~1/(N+1)`` of the
  fingerprint space (the rest keep their warm caches).

**Bounded admission.**  Each shard carries at most
``max_queue_depth`` of *solver backlog* (unsolved unique requests —
waiters coalescing onto one in-flight solve share its single slot, and
requests answerable from the cache bypass the gate entirely); beyond
that the selected ``admission`` policy applies:

``"block"``
    The submitting thread waits until the shard drains below the limit —
    classic backpressure, load is never lost (the default).
``"shed"``
    :class:`~repro.errors.ServiceOverloadError` is raised immediately —
    for callers with their own retry/hedging logic.
``"degrade"``
    The request is answered *inline* instead of queueing — by the
    ``portfolio`` degrade ladder when one is given, else by the ladder's
    ``"floor"`` rung alone (a deterministic
    :class:`~repro.scheduling.heuristics.ListScheduler`).  Latency stays
    bounded at the cost of schedule quality; degraded results are marked
    ``extras["degraded"] = True``.

**Hot swap.**  :meth:`swap_scheduler` installs a new policy shard by
shard.  The atomicity contract is **per shard**: every request is served
bit-identically by exactly one policy version (each shard's worker
snapshots its scheduler per batch — see
:meth:`SchedulingService.swap_scheduler`), and any request submitted
after ``swap_scheduler`` returns is served by the new version on every
shard.  During the swap itself, different shards may briefly serve
different versions — the tier never serves a *torn* schedule, but global
cross-shard cutover is eventual (ordered shard-by-shard), which is
exactly the rolling-update semantics of a real fleet.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Callable,
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
from repro.scheduling.schedule import ScheduleResult
from repro.scheduling.sequence import normalize_stage_counts
from repro.service.store import DiskScheduleStore, TieredScheduleStore
from repro.service.service import (
    SchedulingService,
    ServiceStats,
    ServingFacade,
    notify_serve_listeners,
)
# Still exported for the report layers; tier latency percentiles now
# come from merged per-shard registry histograms (bucket counts compose
# exactly; percentiles of percentiles would not).
from repro.utils.stats import percentile

_ADMISSION_POLICIES = ("block", "shed", "degrade")

#: Ring points per shard.  64 virtual nodes keep the shard-load spread
#: within a few percent of uniform while the ring stays tiny (N*64
#: 8-byte points) and O(log) to search.
_VIRTUAL_NODES = 64


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
class ShardedServiceStats:
    """Aggregate + per-shard counters of a :class:`ShardedSchedulingService`.

    The aggregate counter fields mirror :class:`ServiceStats` (summed
    over shards, plus the degraded serves handled at the front tier), so
    stats consumers written against the single-shard service — e.g.
    :func:`repro.flow.compare.serve_methods`'s fold — read the sharded
    tier unchanged.  Latency percentiles come from *merging* the
    per-shard registry histograms bucket-by-bucket (exact counts
    compose; percentiles of percentiles would be wrong).  Like every
    stats dataclass in this package, this is a view over the shared
    metrics registry — the same instruments the Prometheus/JSON
    exposition scrapes.
    """

    num_shards: int
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
    swaps: int
    listener_errors: int
    #: Admission-control outcomes at the front tier.
    admission: str
    max_queue_depth: int
    #: Submissions that had to wait for a saturated shard ("block").
    blocked: int
    #: Submissions rejected with ServiceOverloadError ("shed").
    shed: int
    #: Submissions answered inline by the degrade ladder ("degrade").
    degraded: int
    per_shard: Tuple[ServiceStats, ...]


class ShardedSchedulingService(ServingFacade):
    """N independent :class:`SchedulingService` shards behind one door.

    Parameters
    ----------
    scheduler:
        One scheduler instance installed on *every* shard.  Its
        ``schedule`` / ``schedule_batch`` must tolerate concurrent calls
        from ``num_shards`` worker threads — true for
        :class:`~repro.rl.respect.RespectScheduler` (the decode is
        functional over read-only weights) and for every deterministic
        baseline heuristic.  For stateful schedulers pass
        ``scheduler_factory`` instead.
    scheduler_factory:
        Zero-argument callable producing one scheduler per shard
        (mutually exclusive with ``scheduler``).  Factories must produce
        equivalently-configured schedulers: bit-identical outputs and
        equal options fingerprints — otherwise the shard a request
        hashes to would change its answer.
    num_shards:
        Shard count (>= 1).
    max_queue_depth:
        Per-shard solver-backlog bound (unsolved unique requests)
        before the admission policy applies; requests coalescing onto
        an in-flight solve share its one slot.
    admission:
        ``"block"`` (default) / ``"shed"`` / ``"degrade"`` — see the
        module docstring.
    portfolio:
        Optional :class:`~repro.portfolio.degrade.DegradeLadder` (any
        object with ``serve(graph, num_stages) -> (result, rung)``).
        When present, degraded requests walk the pressure-ranked
        policy → heuristic → cached-nearest → floor ladder; without
        one they are answered by the floor rung alone.  The answering
        rung lands in ``extras["degrade_rung"]`` and in the front
        tier's ``respect_degrade_rung_total{rung=...}`` counters.  If
        the object also exposes ``observe(graph, num_stages, result)``,
        it is registered as a tier-wide serve listener so full-quality
        serves warm its cached-nearest index.
    stores:
        Optional caller-owned
        :class:`~repro.service.store.TieredScheduleStore` per shard
        (``len == num_shards``), so a front tier can keep warm stores
        across service generations; :meth:`close` leaves them open.
        Mutually exclusive with ``store_dir``.
    store_dir:
        Open (or create) one persistent store at this directory, owned
        by the tier and closed with it; shard ``i`` stacks an LRU of
        ``cache_capacity`` entries over its ``"shard-<i>"`` namespace.
        The ring depends only on ``num_shards``/``virtual_nodes``, so
        namespaces preserve consistent-hash affinity across restarts —
        a tier rebooted over the same directory finds each
        fingerprint's entries in exactly the namespace its shard reads
        and serves them without re-solving.
    cache_capacity / max_batch_size / batch_window_s:
        Forwarded to every shard's :class:`SchedulingService`
        (``cache_capacity`` is ignored with ``stores=``).
    decode_workers:
        When positive, one shared
        :class:`~repro.service.workers.DecodeWorkerPool` of that many
        *processes* serves the policy decodes of **every** shard —
        shard worker threads stop competing for the GIL on the numpy
        decode, which is what lets shard throughput actually scale with
        shard count on a multi-core host.  Weights are published once
        per (swap) generation, not once per shard.  ``0`` (default)
        keeps the in-process decode.
    decode_pool:
        A pre-built shared pool instead of owning one (mutually
        exclusive with positive ``decode_workers``); never closed by
        :meth:`close`.
    telemetry:
        A :class:`~repro.obs.Telemetry` facade shared by the whole tier:
        each shard gets a ``telemetry.child(shard="<i>")`` derivation so
        its registry series carry per-shard labels, while the front tier
        records admission outcomes and degraded serves under
        ``tier="front"``.  One registry scrape covers everything.
        Defaults to a private metrics-only facade.
    """

    def __init__(
        self,
        scheduler: Optional[object] = None,
        *,
        scheduler_factory: Optional[Callable[[], object]] = None,
        num_shards: int = 2,
        max_queue_depth: int = 64,
        admission: str = "block",
        portfolio: Optional[object] = None,
        stores: Optional[Sequence[TieredScheduleStore]] = None,
        cache_capacity: int = 1024,
        max_batch_size: int = 32,
        batch_window_s: float = 0.002,
        virtual_nodes: int = _VIRTUAL_NODES,
        decode_workers: int = 0,
        decode_pool: Optional[object] = None,
        store_dir: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if (scheduler is None) == (scheduler_factory is None):
            raise ServiceError(
                "supply exactly one of scheduler= or scheduler_factory="
            )
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
        if stores is not None:
            if store_dir is not None:
                raise ServiceError(
                    "pass either stores= (caller-owned) or store_dir= "
                    "(tier-owned), not both"
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
                        f"got {type(store).__name__}"
                    )
        self._owned_store: Optional[DiskScheduleStore] = None
        if store_dir is not None:
            self._owned_store = DiskScheduleStore(store_dir)
            stores = [
                TieredScheduleStore(
                    disk=self._owned_store.namespace(self.shard_namespace(i)),
                    memory_capacity=cache_capacity,
                )
                for i in range(num_shards)
            ]
        # Duck-typed so repro.service never imports repro.portfolio:
        # anything with the DegradeLadder serve() contract works.
        if portfolio is not None and not callable(
            getattr(portfolio, "serve", None)
        ):
            raise ServiceError(
                "portfolio must expose serve(graph, num_stages) -> "
                "(result, rung), e.g. repro.portfolio.DegradeLadder"
            )
        if decode_workers < 0:
            raise ServiceError(
                f"decode_workers must be >= 0, got {decode_workers}"
            )
        if decode_workers > 0 and decode_pool is not None:
            raise ServiceError(
                "pass either decode_workers=N (tier owns a pool) or "
                "decode_pool= (shared), not both"
            )
        self._owns_decode_pool = False
        if decode_workers > 0:
            from repro.service.workers import DecodeWorkerPool

            decode_pool = DecodeWorkerPool(decode_workers)
            self._owns_decode_pool = True
        self._decode_pool = decode_pool
        self.num_shards = num_shards
        self.max_queue_depth = max_queue_depth
        self.admission = admission
        self.portfolio = portfolio
        # Without a ladder, "degrade" answers from the ladder's floor
        # rung alone.
        self._floor: Optional[object] = None
        if admission == "degrade" and portfolio is None:
            from repro.scheduling.heuristics import ListScheduler

            self._floor = ListScheduler()
        self._ring = build_hash_ring(num_shards, virtual_nodes)
        # One weights epoch serves every shard: the first wrap publishes,
        # the rest reuse it (factories must produce equivalent
        # schedulers, and the decode workers *check* the fingerprint).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        epoch: Optional[int] = None
        shards = []
        for i in range(num_shards):
            incoming = (
                scheduler if scheduler is not None else scheduler_factory()
            )
            incoming, epoch = self._wrap_shard_scheduler(incoming, epoch)
            shards.append(
                SchedulingService(
                    incoming,
                    cache_capacity=cache_capacity,
                    max_batch_size=max_batch_size,
                    batch_window_s=batch_window_s,
                    store=stores[i] if stores is not None else None,
                    # Per-shard label: one shared registry, per-shard
                    # series — shard stats stay views over their own
                    # instruments, a single scrape covers the tier.
                    telemetry=self.telemetry.child(shard=str(i)),
                )
            )
        self.shards: Tuple[SchedulingService, ...] = tuple(shards)
        # -- front-tier state (guarded by self._cond's lock) -----------
        self._cond = threading.Condition()
        #: Per-shard admission-gate accounting, owned entirely by the
        #: front tier so the gate is race-free: ``_gate`` counts
        #: admitted requests that created new (still-unresolved) solver
        #: work; ``_reserved`` counts admissions whose shard submit has
        #: not returned yet.  Gate value = _gate + _reserved, so racing
        #: submitters cannot jointly overshoot ``max_queue_depth``, and
        #: a reservation converts to a gate slot (or is released for
        #: hits/coalesces) under one lock acquisition — never counted
        #: twice.
        self._gate = [0] * num_shards
        self._reserved = [0] * num_shards
        self._listeners: List[Callable] = []
        self._closed = False
        # -- front-tier registry instruments ----------------------------
        # Admission outcomes and degraded serves happen *before* (or
        # instead of) any shard, so they are counted exactly once, here,
        # under the ``tier="front"`` label — never again inside a shard
        # (the double-counting audit in the tests pins this).
        front = self.telemetry.child(tier="front")
        self._m_blocked = front.counter(
            "respect_admission_outcomes_total",
            help="Admission-control outcomes at the sharded front tier",
            outcome="blocked",
        )
        self._m_shed = front.counter(
            "respect_admission_outcomes_total", outcome="shed"
        )
        self._m_degraded = front.counter(
            "respect_admission_outcomes_total", outcome="degraded"
        )
        # Degraded serves never reach a shard; counting them under the
        # front tier keeps "sum of respect_requests_total across series"
        # equal to the tier's total served requests.
        self._m_front_requests = front.counter("respect_requests_total")
        self._m_tier_swaps = front.counter(
            "respect_tier_swaps_total",
            help="Tier-level rolling hot-swaps (each touches every shard)",
        )
        self._m_listener_errors = front.counter(
            "respect_listener_errors_total"
        )
        # Which ladder rung answered each degraded request.  The names
        # mirror repro.portfolio.degrade.LADDER_RUNGS (not imported
        # here — the service layer stays portfolio-free).
        self._front_telemetry = front
        self._m_degrade_rungs = {
            rung: front.counter(
                "respect_degrade_rung_total",
                help="Degraded serves by the ladder rung that answered",
                rung=rung,
            )
            for rung in ("policy", "heuristic", "cached_nearest", "floor")
        }
        if self.portfolio is not None and callable(
            getattr(self.portfolio, "observe", None)
        ):
            # Full-quality serves (shard-side) warm the ladder's
            # cached-nearest index; the ladder itself skips results
            # flagged degraded, so degrade-path notifications are safe.
            self.add_serve_listener(self.portfolio.observe)

    # ------------------------------------------------------------------
    # decode workers
    # ------------------------------------------------------------------
    def _wrap_shard_scheduler(
        self, incoming: object, epoch: Optional[int]
    ) -> Tuple[object, Optional[int]]:
        """Route one shard's decode through the shared pool.

        Publishes the weights at most once per scheduler generation:
        ``epoch=None`` publishes and returns the fresh epoch, a concrete
        ``epoch`` is reused (the per-shard wrappers of one generation
        all tag their requests with it, so a rolling swap retargets the
        pool exactly once).  Unsupported schedulers pass through — those
        shards decode in-process, exactly as without a pool.
        """
        if self._decode_pool is None:
            return incoming, epoch
        from repro.service.workers import (
            WorkerDecodeScheduler,
            supports_worker_decode,
        )

        if not supports_worker_decode(incoming):
            return incoming, epoch
        if epoch is None:
            epoch = self._decode_pool.publish_scheduler(incoming)
        return (
            WorkerDecodeScheduler(incoming, self._decode_pool, epoch),
            epoch,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @staticmethod
    def shard_namespace(shard_id: int) -> str:
        """Persistent-store namespace of shard ``shard_id`` (``store_dir=``).

        Stable across restarts for a fixed tier shape, which is what
        makes a reopened store warm: the ring (and thus each
        fingerprint's shard) depends only on ``num_shards`` and
        ``virtual_nodes``, and this mapping depends only on the shard id.
        """
        return f"shard-{shard_id}"

    @property
    def schedule_store(self) -> Optional[DiskScheduleStore]:
        """The persistent store behind shard 0 (None when memory-only).

        With ``store_dir=`` every shard shares this one store.
        """
        return self.shards[0].schedule_store

    def snapshot(self):
        """Persist the index of every disk store behind the shards.

        Returns the first snapshot path; raises :class:`ServiceError`
        when the tier is memory-only.
        """
        disks = [
            disk
            for disk in dict.fromkeys(s.schedule_store for s in self.shards)
            if disk is not None
        ]
        if not disks:
            raise ServiceError(
                "this tier has no persistent schedule store to snapshot "
                "(construct it with stores= or store_dir=)"
            )
        return [disk.snapshot() for disk in disks][0]

    def restore(self, limit: Optional[int] = None) -> int:
        """Warm every shard's memory tier from the shared store.

        ``limit`` bounds the preload *per shard* (default: each shard's
        LRU capacity).  Returns the total number of preloaded entries;
        ``0`` when the tier is memory-only.
        """
        return sum(shard.restore(limit) for shard in self.shards)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_index(self, graph_or_fingerprint: Union[ComputationalGraph, str]) -> int:
        """Which shard a graph (or its fingerprint) routes to."""
        fingerprint = (
            graph_or_fingerprint
            if isinstance(graph_or_fingerprint, str)
            else graph_fingerprint(graph_or_fingerprint)
        )
        return shard_for_fingerprint(fingerprint, self._ring)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        deadline_ms: Optional[float] = None,
    ) -> "Future[ScheduleResult]":
        """Route one request to its shard, applying admission control.

        Returns a future exactly like :meth:`SchedulingService.submit`
        (cache hits resolve before returning).  Degraded answers come
        back as already-resolved futures carrying
        ``extras["degraded"] = True`` plus ``extras["degrade_rung"]``
        naming which ladder rung answered.  ``deadline_ms`` is forwarded
        to the shard (see :meth:`SchedulingService.submit`); degraded
        requests are answered inline from the ladder, which trivially
        satisfies any deadline.
        """
        (stages,) = normalize_stage_counts(num_stages, 1)
        # Fingerprint once, outside any lock: it both picks the shard
        # and is forwarded so the shard does not recompute it.
        fingerprint = graph_fingerprint(graph)
        shard_id = shard_for_fingerprint(fingerprint, self._ring)
        # Root (or join) the request trace before admission so the gate
        # wait shows up inside the span tree; the shard later *joins*
        # this span (via current_span) instead of rooting its own.
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
                        fingerprint=fingerprint[:12],
                        num_stages=stages,
                        shard=shard_id,
                    )
                    or None
                )
                owns_span = span is not None
        admission_start = time.time()
        degrade = False
        waited = False
        bypassed = False
        try:
            with self._cond:
                if self._closed:
                    raise ServiceError("service is closed")
                # The gate measures admitted *solver backlog* (unresolved
                # unique solves, `_gate`, plus in-transit admissions,
                # `_reserved`) — not attached waiters: any number of
                # requests coalescing onto one in-flight solve occupy
                # exactly one slot, so a thundering herd on one graph can
                # never starve requests for other graphs out of the depth
                # budget.  Both counters live under this lock, so racing
                # submitters cannot jointly overshoot ``max_queue_depth``.
                while (
                    self._gate[shard_id] + self._reserved[shard_id]
                ) >= self.max_queue_depth:
                    # A request already answerable without new solver work
                    # (cached, or coalescable onto an in-flight solve) is
                    # waved past the gate without even a reservation:
                    # serving it adds no backlog, and admission exists to
                    # bound solver work, not O(1) lookups.  The probe races
                    # with eviction; a lost race admits at most one extra
                    # solve (it is still gate-counted below once real),
                    # which the depth bound absorbs on the next request.
                    if self.shards[shard_id].has_cached(fingerprint, stages):
                        bypassed = True
                        break
                    if self.admission == "shed":
                        self._m_shed.inc()
                        raise ServiceOverloadError(
                            f"shard {shard_id} is at its queue depth limit "
                            f"({self.max_queue_depth}); request shed"
                        )
                    if self.admission == "degrade":
                        self._m_degraded.inc()
                        degrade = True
                        break
                    waited = True
                    self._cond.wait()
                    if self._closed:
                        raise ServiceError("service is closed")
                if waited:
                    self._m_blocked.inc()
                if not degrade and not bypassed:
                    self._reserved[shard_id] += 1
        except BaseException as exc:
            if span is not None:
                tracer.record_span(
                    "admission",
                    admission_start,
                    time.time(),
                    span.trace_id,
                    span.span_id,
                    attrs={
                        "outcome": (
                            "shed"
                            if isinstance(exc, ServiceOverloadError)
                            else "error"
                        ),
                        "shard": shard_id,
                    },
                )
                if owns_span:
                    span.end(status="error")
            raise
        if span is not None:
            tracer.record_span(
                "admission",
                admission_start,
                time.time(),
                span.trace_id,
                span.span_id,
                attrs={
                    "outcome": (
                        "degraded"
                        if degrade
                        else "bypassed"
                        if bypassed
                        else "blocked"
                        if waited
                        else "admitted"
                    ),
                    "shard": shard_id,
                },
            )
        if degrade:
            return self._serve_degraded(graph, stages, span, owns_span)
        route_start = time.time()
        try:
            if span is not None:
                # Activating the tier span makes the shard *join* it —
                # its lookup/solve/publish records parent here instead
                # of rooting a second trace for the same request.
                with span.activate():
                    future = self.shards[shard_id].submit(
                        graph,
                        stages,
                        fingerprint=fingerprint,
                        deadline_ms=deadline_ms,
                    )
            else:
                future = self.shards[shard_id].submit(
                    graph, stages, fingerprint=fingerprint, deadline_ms=deadline_ms
                )
        except BaseException:
            if span is not None and owns_span:
                span.end(status="error")
            if not bypassed:
                with self._cond:
                    self._reserved[shard_id] -= 1
                    if self.admission == "block":
                        self._cond.notify_all()
            raise
        if span is not None:
            tracer.record_span(
                "route",
                route_start,
                time.time(),
                span.trace_id,
                span.span_id,
                attrs={"shard": shard_id},
            )
            if owns_span:
                # The root closes when the request resolves (hit futures
                # are already done; the callback then fires inline).
                future.add_done_callback(lambda _f, _s=span: _s.end())
        # Did this admission create new solver work?  A cache hit is
        # already resolved; a coalesced request carries the shard's
        # marker.  Only new solves occupy a gate slot (released by the
        # done callback) — hits and coalesces release their reservation
        # without ever being double-counted, because the conversion
        # happens under the same lock the gate reads.
        new_solve = not future.done() and not getattr(
            future, "_respect_coalesced", False
        )
        with self._cond:
            if not bypassed:
                self._reserved[shard_id] -= 1
            if new_solve:
                self._gate[shard_id] += 1
            elif self.admission == "block" and not bypassed:
                self._cond.notify_all()  # reservation freed capacity
        if new_solve:
            future.add_done_callback(
                lambda _f, shard_id=shard_id: self._gate_release(shard_id)
            )
        return future

    def _gate_release(self, shard_id: int) -> None:
        # One callback per unique solve (never per waiter, never for
        # cache hits), so the front-tier lock is off the hot serving
        # path; under "block" a release also wakes gated submitters.
        # Shards resolve futures outside their own lock, so this
        # acquisition cannot deadlock against shard internals.
        with self._cond:
            self._gate[shard_id] -= 1
            if self.admission == "block":
                self._cond.notify_all()

    def _serve_degraded(
        self,
        graph: ComputationalGraph,
        stages: int,
        span: Optional[object] = None,
        owns_span: bool = False,
    ) -> "Future[ScheduleResult]":
        """Answer inline from the degrade ladder (saturated shard).

        With a ``portfolio`` ladder the answer walks
        policy → heuristic → cached-nearest → floor and the winning rung
        is recorded in ``extras["degrade_rung"]`` plus the per-rung
        front-tier counter; without one the floor rung answers alone.
        """
        solve_start = time.time()
        if self.portfolio is not None:
            result, rung = self.portfolio.serve(graph, stages)
        else:
            result, rung = self._floor.schedule(graph, stages), "floor"  # type: ignore[union-attr]
            result.extras["degrade_rung"] = rung
        served_by = str(result.method)
        # Degraded serves never reach a shard, so their request count
        # lands here (tier="front") — exactly once.
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
        self._notify_degraded(graph, stages, result)
        return future

    def backlog(self) -> int:
        """Total solver backlog (unsolved unique requests) over all shards."""
        return sum(shard.backlog() for shard in self.shards)

    # ------------------------------------------------------------------
    # hot swap / observers / invalidation
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> object:
        """The currently installed policy (all shards run one version).

        Shards only ever change schedulers through
        :meth:`swap_scheduler`, which installs equivalently-configured
        instances everywhere, so shard 0's scheduler is representative —
        the property the online-adaptation loop reads the champion from.
        """
        return self.shards[0].scheduler

    def swap_scheduler(
        self,
        scheduler: Optional[object] = None,
        *,
        scheduler_factory: Optional[Callable[[], object]] = None,
    ) -> str:
        """Install a new scheduler on every shard, shard-atomically.

        Per-shard atomicity is inherited from
        :meth:`SchedulingService.swap_scheduler`: no request anywhere is
        ever served a torn mix of two policies, and every request
        submitted after this method returns is served by the new version.
        Cross-shard cutover is *rolling* (shard by shard, in index
        order); during it, shards may briefly serve different versions.

        Returns the retired options fingerprint (identical across
        shards, since shards always run equivalently-configured
        schedulers); evict stale entries with
        :meth:`invalidate_options`.
        """
        if (scheduler is None) == (scheduler_factory is None):
            raise ServiceError(
                "supply exactly one of scheduler= or scheduler_factory="
            )
        old_keys = []
        epoch: Optional[int] = None
        for shard in self.shards:
            incoming = (
                scheduler if scheduler is not None else scheduler_factory()
            )
            # One published weights epoch per swap, shared by all shards.
            incoming, epoch = self._wrap_shard_scheduler(incoming, epoch)
            old_keys.append(shard.swap_scheduler(incoming))
        self._m_tier_swaps.inc()
        return old_keys[0]

    def invalidate_options(self, options_key: str) -> int:
        """Evict ``options_key`` entries from every shard's store."""
        return sum(
            shard.cache.invalidate_options(options_key)
            for shard in self.shards
        )

    def add_serve_listener(
        self, listener: Callable[[ComputationalGraph, int, ScheduleResult], None]
    ) -> None:
        """Register ``listener(graph, num_stages, result)`` on every shard.

        One registration observes the tier's entire traffic: each shard
        calls the listener for the requests it serves, and the front
        tier calls it for degraded requests.  Error
        semantics match :meth:`SchedulingService.add_serve_listener`.
        """
        if not callable(listener):
            raise ServiceError("serve listener must be callable")
        for shard in self.shards:
            shard.add_serve_listener(listener)
        with self._cond:
            self._listeners.append(listener)

    def remove_serve_listener(self, listener: Callable) -> None:
        """Detach a listener tier-wide (missing ones no-op)."""
        for shard in self.shards:
            shard.remove_serve_listener(listener)
        with self._cond:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify_degraded(
        self, graph: ComputationalGraph, num_stages: int, result: ScheduleResult
    ) -> None:
        # Degraded serves bypass the shards, so the front tier notifies
        # (and error-accounts) through the same shared implementation
        # the shards use — the two paths cannot diverge.
        with self._cond:
            listeners = list(self._listeners)
        notify_serve_listeners(
            listeners, graph, num_stages, result, self._record_listener_error
        )

    def _record_listener_error(self) -> bool:
        # Serialized under the tier lock so exactly one caller observes
        # the transition to 1 (and logs the one warning).
        with self._cond:
            self._m_listener_errors.inc()
            return self._m_listener_errors.value == 1

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ShardedServiceStats:
        """Aggregate counters over all shards plus admission outcomes."""
        per_shard = tuple(shard.stats() for shard in self.shards)
        # Exact tier-wide latency distribution: per-shard histograms
        # share one bucket layout, so their counts merge losslessly
        # (unlike pooling per-shard percentiles, which has no exact
        # composition).
        merged = HistogramSnapshot.merged(
            [shard.latency_snapshot() for shard in self.shards]
        )
        blocked = self._m_blocked.value
        shed = self._m_shed.value
        degraded = self._m_degraded.value
        swaps = self._m_tier_swaps.value
        front_listener_errors = self._m_listener_errors.value
        requests = sum(s.requests for s in per_shard) + degraded
        hits = sum(s.cache_hits for s in per_shard)
        batches = sum(s.batches for s in per_shard)
        scheduled = sum(s.scheduled_graphs for s in per_shard)
        return ShardedServiceStats(
            num_shards=self.num_shards,
            requests=requests,
            cache_hits=hits,
            coalesced=sum(s.coalesced for s in per_shard),
            batches=batches,
            scheduled_graphs=scheduled,
            mean_batch_size=scheduled / batches if batches else 0.0,
            hit_rate=hits / requests if requests else 0.0,
            latency_mean_s=merged.mean if merged.count else 0.0,
            latency_p50_s=merged.percentile(50) if merged.count else 0.0,
            latency_p99_s=merged.percentile(99) if merged.count else 0.0,
            swaps=swaps,
            listener_errors=(
                sum(s.listener_errors for s in per_shard)
                + front_listener_errors
            ),
            admission=self.admission,
            max_queue_depth=self.max_queue_depth,
            blocked=blocked,
            shed=shed,
            degraded=degraded,
            per_shard=per_shard,
        )

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Close every shard; fail all still-pending futures; wake blockers.

        Idempotent.  ``timeout`` is one shared drain deadline for the
        whole tier (not per shard).  Submitters blocked on admission are
        woken and raise :class:`ServiceError`; per-shard close semantics
        (drain, then fail the remainder) are documented on
        :meth:`SchedulingService.close`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        # One shared drain budget for the whole tier: ``timeout`` is a
        # deadline, not a per-shard allowance (N stuck shards must not
        # stretch close() to N x timeout).
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self.shards:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            shard.close(timeout=remaining)
        # The shared decode pool drains under the *same* deadline — one
        # budget for the whole tier, never timeout x (shards + workers).
        # Pool-side waiters still pending at the cutoff fail with the
        # same ServiceError("service closed") the shards use.
        if self._owns_decode_pool and self._decode_pool is not None:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            self._decode_pool.close(timeout=remaining)
        # The owned persistent store closes last, after every shard has
        # stopped writing (its close snapshots the index); stores passed
        # in via stores= stay caller-owned and open.
        if self._owned_store is not None:
            self._owned_store.close()


__all__ = [
    "ShardedSchedulingService",
    "ShardedServiceStats",
    "build_hash_ring",
    "shard_for_fingerprint",
]
