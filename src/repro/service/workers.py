"""Multiprocess policy decode: GIL-free workers behind the serving tier.

The serving layer's hot loop — greedy pointer-network decoding — is pure
numpy compute.  Python threads cannot parallelize it (the interpreter
serializes the non-BLAS portions under the GIL), so a sharded service on
an N-core host still decodes on roughly one core.  This module moves the
decode into *processes*:

:class:`DecodeWorkerPool`
    A pool of spawn-safe worker processes.  Each worker loads the policy
    weights **once** per published *weights epoch* (from a checkpoint the
    pool writes via :mod:`repro.rl.checkpoints`), then serves decode
    batches arriving as :mod:`repro.service.wire` decode requests over
    its own duplex pipe.  Per-worker pipes — not one shared queue — are
    what makes crash recovery sound: a ``multiprocessing.Queue`` reader
    blocked in ``get()`` *holds the queue's shared lock*, so killing it
    would deadlock every surviving reader, whereas a killed pipe only
    EOFs its own endpoint.  That EOF is also the crash detector: the
    dead worker is respawned and its single in-flight task resubmitted
    elsewhere.  :meth:`DecodeWorkerPool.close` honors one shared
    deadline and fails still-pending submitters with exactly the
    in-process service's ``ServiceError("service closed")``.

:class:`WorkerDecodeScheduler`
    A drop-in scheduler adapter: same ``schedule`` / ``schedule_batch``
    interface and **bit-identical outputs** as the wrapped
    :class:`~repro.rl.respect.RespectScheduler`, but the greedy decode
    runs in the pool.  The split follows the data: the parent embeds
    each graph into its encoder queue (features, precedence, node
    names) and ships the queues; the worker runs
    ``RespectScheduler._decode_queues``, the same padded decode the
    in-process path runs, and returns node orders and log-probs.  The
    ``rho`` packing and post-processing stay in-process (they are cheap
    and graph-object bound) and are the wrapped scheduler's own step:
    the adapter only swaps in the remote decode.  No graph crosses the
    pipe, so the worker neither rebuilds nor fingerprints one.

**Bit-identity as a checked invariant.**  The worker does not trust that
it rebuilt the right scheduler: after loading a weights epoch it
recomputes ``options_fingerprint()`` — which hashes the frozen float32
inference weights, the embedding configuration and every packing option —
and refuses to serve if it differs from the fingerprint recorded at
publish time.  Every decode request additionally carries the sender's
fingerprint and the embedding config its queues were built with, so a
request can never silently run under the wrong weights (e.g. mid hot
swap) or decode features embedded differently.  The queues arrive as the
exact float64 bytes the parent's embedding produced, and the float32
weight round trip is lossless (f32 -> f64 sidecar load -> f32 cast), so
worker-decoded schedules are bit-identical to in-process ones by
construction, not by luck.

**Hot swap.**  :meth:`DecodeWorkerPool.publish_scheduler` assigns a fresh
monotonically increasing *weights epoch* and persists the scheduler's
frozen inference weights + decode configuration under it.  Requests are
tagged with their epoch; a worker lazily reloads when it sees a tag newer
(or older — rolling swaps may interleave) than what it has in memory, so
``swap_scheduler`` / ``promote_challenger`` atomically retarget every
worker without any worker-side coordination.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DecodeWorkerError, ServiceError
from repro.graphs.dag import ComputationalGraph
from repro.obs.trace import NOOP_SPAN, current_span
from repro.scheduling.schedule import ScheduleResult
from repro.service import wire

#: Maximum times one decode task is resubmitted after worker crashes
#: before it fails with :class:`DecodeWorkerError`.
_MAX_TASK_RETRIES = 3


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class _WorkerDecoder:
    """One loaded weights epoch inside a worker process."""

    def __init__(self, epoch: int, scheduler: object) -> None:
        self.epoch = epoch
        self.scheduler = scheduler

    @classmethod
    def load(cls, weights_dir: str, epoch: int) -> "_WorkerDecoder":
        from repro.embedding.features import EmbeddingConfig
        from repro.rl.checkpoints import load_checkpoint, read_metadata
        from repro.rl.respect import RespectScheduler

        name = f"epoch-{epoch}"
        policy = load_checkpoint(weights_dir, name)
        meta = read_metadata(weights_dir, name)
        config = meta.get("decode_config")
        if not isinstance(config, dict):
            raise DecodeWorkerError(
                f"checkpoint {name!r} carries no decode_config sidecar "
                f"metadata; it was not written by DecodeWorkerPool."
                f"publish_scheduler"
            )
        # Only the keys read here shape the decode.  Sidecars written
        # before the single decode path also carry a retired
        # ``use_vectorized_decode`` flag (it never changed an output);
        # it and any other extra key are ignored.
        scheduler = RespectScheduler(
            policy=policy,
            embedding_config=EmbeddingConfig(**config["embedding"]),
            budget_slack=config["budget_slack"],
            enforce_siblings=config["enforce_siblings"],
            constrain_topological=config["constrain_topological"],
        )
        expected = config.get("options_fingerprint")
        actual = scheduler.options_fingerprint()
        if expected is not None and actual != expected:
            # The rebuilt scheduler would NOT produce bit-identical
            # schedules (weight corruption, config drift, version skew).
            # Refusing here is what turns bit-identity from an
            # assumption into a checked invariant.
            raise DecodeWorkerError(
                f"rebuilt scheduler for weights epoch {epoch} fingerprints "
                f"as {actual[:12]}... but {expected[:12]}... was published; "
                f"refusing to serve non-identical decodes"
            )
        return cls(epoch, scheduler)

    def decode(self, payload: bytes) -> bytes:
        start_s = time.time()
        request = wire.decode_decode_request(payload)
        fingerprint = self.scheduler.options_fingerprint()  # type: ignore[attr-defined]
        if request.options_key is not None and request.options_key != fingerprint:
            raise DecodeWorkerError(
                f"decode request targets scheduler "
                f"{request.options_key[:12]}... but weights epoch "
                f"{self.epoch} holds {fingerprint[:12]}..."
            )
        # The options key covers the embedding config, but a request may
        # carry no key, and two configs can share a feature dim: check
        # the config that embedded the queues directly.
        expected = self.scheduler.embedding_config  # type: ignore[attr-defined]
        if request.embedding_config != expected:
            raise DecodeWorkerError(
                f"decode request was embedded with "
                f"{request.embedding_config} but weights epoch "
                f"{self.epoch} embeds with {expected}"
            )
        queues = request.queues
        orders, log_probs = self.scheduler._decode_queues(queues)  # type: ignore[attr-defined]
        spans = None
        if request.trace is not None:
            # No tracer lives in the worker process: the sub-span is a
            # plain record (wall-clock timestamps, comparable with the
            # parent's) shipped home inside the response frame, where
            # the parent-side Tracer.ingest() re-exports it.
            spans = [
                {
                    "name": "worker.decode",
                    "trace_id": request.trace["trace_id"],
                    "span_id": os.urandom(8).hex(),
                    "parent_id": request.trace["span_id"],
                    "start_s": start_s,
                    "end_s": time.time(),
                    "status": "ok",
                    "attrs": {
                        "pid": os.getpid(),
                        "epoch": self.epoch,
                        "batch_size": len(queues),
                    },
                }
            ]
        return wire.encode_decode_response(orders, log_probs, spans=spans)


def _decode_worker_main(conn, weights_dir: str) -> None:
    """Worker process entry point (module-level so ``spawn`` can import it).

    Loops over ``(task_id, epoch, payload)`` tasks on its private duplex
    pipe; a ``None`` sentinel (or the parent closing the pipe) shuts the
    worker down.  Weights are loaded lazily per epoch and kept until a
    task tags a different epoch (hot swap).  Any per-task failure is
    reported back as a string — the worker itself stays alive.
    """
    decoder: Optional[_WorkerDecoder] = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        task_id, epoch, payload = task
        try:
            if decoder is None or decoder.epoch != epoch:
                decoder = _WorkerDecoder.load(weights_dir, epoch)
            response = decoder.decode(payload)
        except BaseException as exc:  # report, never die on a bad task
            conn.send((task_id, f"{type(exc).__name__}: {exc}", None))
            continue
        conn.send((task_id, None, response))


# ----------------------------------------------------------------------
# pool
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodePoolStats:
    """Counters of a :class:`DecodeWorkerPool`."""

    num_workers: int
    start_method: str
    #: Latest published weights epoch (0 = nothing published yet).
    epoch: int
    #: Successfully completed decode batches.
    decodes: int
    #: Worker processes respawned after a crash.
    respawns: int
    #: Submitted batches still awaiting a result.
    pending: int
    started: bool
    closed: bool


class _PendingDecode:
    """One submitted batch awaiting its worker result."""

    __slots__ = (
        "event",
        "payload",
        "epoch",
        "response",
        "error",
        "resubmits",
        "span",
        "attempt",
    )

    def __init__(self, payload: bytes, epoch: int, span=None) -> None:
        self.event = threading.Event()
        self.payload = payload
        self.epoch = epoch
        self.response: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        self.resubmits = 0
        #: Caller's round-trip span (None when the request is untraced).
        self.span = span
        #: Span of the current dispatch; a crash ends it ("crashed") and
        #: the resubmission opens a fresh one — retries are visible as
        #: sibling attempt spans.
        self.attempt = None


class _Worker:
    """One worker process plus the parent's end of its private pipe."""

    __slots__ = ("process", "conn", "inflight")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Task id currently decoding in this worker (None = idle).
        self.inflight: Optional[int] = None


class DecodeWorkerPool:
    """Spawn-safe decode worker processes, each behind a private pipe.

    Parameters
    ----------
    num_workers:
        Worker process count (>= 1).
    start_method:
        ``multiprocessing`` start method; ``"spawn"`` (the default) is
        the only method that is safe everywhere — forking a process that
        holds service locks and live threads is not.
    max_task_retries:
        How many worker crashes one task survives (via resubmission)
        before failing with :class:`DecodeWorkerError`.

    Workers start lazily on the first :meth:`submit`, so constructing a
    pool (e.g. for a service that may never see respect traffic) costs
    only a temp directory.  Weights travel through that directory as
    :mod:`repro.rl.checkpoints` artifacts — content-validated files, not
    pickled live objects — which is what makes ``spawn`` workers cheap to
    retarget and safe to respawn.
    """

    def __init__(
        self,
        num_workers: int = 2,
        *,
        start_method: str = "spawn",
        max_task_retries: int = _MAX_TASK_RETRIES,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        if max_task_retries < 0:
            raise ServiceError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.num_workers = num_workers
        self.start_method = start_method
        self.max_task_retries = max_task_retries
        self._ctx = multiprocessing.get_context(start_method)
        self._weights_dir = tempfile.mkdtemp(prefix="respect-decode-pool-")
        self._lock = threading.Lock()
        self._tasks: Dict[int, _PendingDecode] = {}
        self._task_counter = 0
        self._epoch = 0
        self._decodes = 0
        self._respawns = 0
        self._started = False
        self._closed = False
        self._workers: List[_Worker] = []
        #: Task ids accepted but not yet dispatched to an idle worker.
        self._backlog: Deque[int] = deque()
        self._collector: Optional[threading.Thread] = None
        # Reclaim the weights directory even if close() is never called.
        self._weights_finalizer = weakref.finalize(
            self, shutil.rmtree, self._weights_dir, True
        )

    # ------------------------------------------------------------------
    # publishing weights epochs
    # ------------------------------------------------------------------
    def publish_scheduler(self, scheduler: object) -> int:
        """Persist ``scheduler``'s decode state under a new weights epoch.

        Saves the scheduler's frozen inference policy plus its
        ``decode_config()`` (embedding/packing options and the published
        ``options_fingerprint``) as a checkpoint in the pool's weights
        directory, and returns the epoch token to tag decode requests
        with.  Workers retarget lazily: the first task tagged with the
        new epoch makes its worker reload — no pause, no coordination.
        Anything but a :class:`~repro.rl.respect.RespectScheduler` raises
        :class:`ServiceError`.
        """
        from repro.rl.checkpoints import checkpoint_metadata, save_checkpoint

        if not supports_worker_decode(scheduler):
            raise ServiceError(
                f"{type(scheduler).__name__} is not a RespectScheduler; only "
                f"RESPECT schedulers can run in decode workers"
            )
        policy = scheduler.inference_policy  # type: ignore[attr-defined]
        config = scheduler.decode_config()  # type: ignore[attr-defined]
        with self._lock:
            if self._closed:
                raise ServiceError("decode worker pool is closed")
            self._epoch += 1
            epoch = self._epoch
            name = f"epoch-{epoch}"
            meta = checkpoint_metadata(
                policy, name, source="repro.service.workers"
            )
            meta["decode_config"] = config
            # Saved under the lock so the epoch is fully on disk before
            # any submit can observe it as the latest.
            save_checkpoint(policy, self._weights_dir, name, metadata=meta)
        return epoch

    @property
    def epoch(self) -> int:
        """Latest published weights epoch (0 until the first publish)."""
        with self._lock:
            return self._epoch

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: bytes,
        epoch: Optional[int] = None,
        timeout: Optional[float] = None,
        *,
        span=None,
    ) -> bytes:
        """Decode one wire-format batch in a worker; returns wire bytes.

        ``epoch`` selects the weights (default: latest published).
        Blocks until the result arrives; raises
        :class:`DecodeWorkerError` on worker-side failure or timeout and
        ``ServiceError("service closed")`` when the pool closes while the
        request is in flight.  ``span`` (an active trace span) makes the
        pool emit one ``worker.attempt`` child per dispatch, so crash
        retries show up as extra attempt spans.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("decode worker pool is closed")
            if self._epoch == 0:
                raise ServiceError(
                    "no scheduler published; call publish_scheduler() first"
                )
            if epoch is None:
                epoch = self._epoch
            elif epoch < 1 or epoch > self._epoch:
                raise ServiceError(
                    f"unknown weights epoch {epoch}; published epochs are "
                    f"1..{self._epoch}"
                )
            self._ensure_started_locked()
            self._task_counter += 1
            task_id = self._task_counter
            pending = _PendingDecode(payload, epoch, span)
            self._tasks[task_id] = pending
            self._backlog.append(task_id)
            self._dispatch_locked()
        if not pending.event.wait(timeout):
            with self._lock:
                self._tasks.pop(task_id, None)
                attempt, pending.attempt = pending.attempt, None
            if attempt is not None:
                attempt.end(status="timeout")
            raise DecodeWorkerError(
                f"decode did not complete within {timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.response is not None
        return pending.response

    def _ensure_started_locked(self) -> None:
        if self._started:
            return
        for index in range(self.num_workers):
            self._workers.append(self._spawn_worker_locked(index))
        self._collector = threading.Thread(
            target=self._collect_loop,
            name="respect-decode-collector",
            daemon=True,
        )
        self._collector.start()
        self._started = True

    def _spawn_worker_locked(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_decode_worker_main,
            args=(child_conn, self._weights_dir),
            name=f"respect-decode-worker-{index}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end so a worker death
        # surfaces as EOF on parent_conn — that EOF *is* crash detection.
        child_conn.close()
        return _Worker(process, parent_conn)

    # ------------------------------------------------------------------
    # dispatch + result collection + crash recovery
    # ------------------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Hand backlog tasks to idle workers (callers hold the lock).

        At most one task is in flight per worker, and only an *idle*
        worker — one blocked in ``recv`` — is sent to, so ``send`` can
        never deadlock on a full pipe.  Runs from ``submit`` (new task),
        the collector (a worker just went idle) and crash recovery (a
        resubmitted task needs a new home).
        """
        if self._closed:
            return
        idle = [
            worker
            for worker in self._workers
            if worker.inflight is None and worker.process.is_alive()
        ]
        for worker in idle:
            task_id = None
            while self._backlog:
                candidate = self._backlog.popleft()
                if candidate in self._tasks:  # not timed out / failed
                    task_id = candidate
                    break
            if task_id is None:
                return
            pending = self._tasks[task_id]
            if pending.span is not None:
                # One attempt span per dispatch (attempt numbering is
                # 1-based); crash recovery ends it as "crashed" and the
                # resubmitted dispatch opens the next one.
                pending.attempt = pending.span.child(
                    "worker.attempt", attempt=pending.resubmits + 1
                )
            try:
                worker.conn.send((task_id, pending.epoch, pending.payload))
            except (OSError, ValueError, BrokenPipeError):
                # The worker died between is_alive() and send(); its
                # EOF will reach the collector, which respawns it and
                # finds this task via ``inflight``.
                worker.inflight = task_id
                continue
            worker.inflight = task_id

    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = {worker.conn: worker for worker in self._workers}
            try:
                ready = connection.wait(list(conns), timeout=0.2)
            except OSError:
                ready = []
            for conn in ready:
                worker = conns[conn]
                try:
                    item = conn.recv()
                except (EOFError, OSError):
                    self._reap_and_respawn(worker)
                    continue
                self._complete(worker, item)
            with self._lock:
                if self._closed:
                    return
                self._dispatch_locked()

    def _complete(self, worker: _Worker, item) -> None:
        task_id, error, response = item
        with self._lock:
            if worker.inflight == task_id:
                worker.inflight = None
            pending = self._tasks.pop(task_id, None)
            if pending is None:
                # The waiter is gone (timed out or failed at close).
                return
            self._decodes += 1
            attempt, pending.attempt = pending.attempt, None
        if attempt is not None:
            attempt.end(status="error" if error is not None else None)
        if error is not None:
            pending.error = DecodeWorkerError(
                f"decode worker failed: {error}"
            )
        else:
            pending.response = response
        pending.event.set()

    def _reap_and_respawn(self, worker: _Worker) -> None:
        """Replace one dead worker; resubmit (or fail) its in-flight task.

        Per-worker pipes make the lost work precisely attributable: only
        the task the dead worker was decoding is affected.  Each
        resubmission burns one retry, so a task surviving
        ``max_task_retries`` crashes fails loudly instead of looping
        forever.
        """
        failed: Optional[_PendingDecode] = None
        crashed_attempt = None
        with self._lock:
            if self._closed or worker not in self._workers:
                return
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(0.2)
            index = self._workers.index(worker)
            self._respawns += 1
            self._workers[index] = self._spawn_worker_locked(index)
            task_id = worker.inflight
            if task_id is not None and task_id in self._tasks:
                pending = self._tasks[task_id]
                crashed_attempt, pending.attempt = pending.attempt, None
                pending.resubmits += 1
                if pending.resubmits > self.max_task_retries:
                    del self._tasks[task_id]
                    failed = pending
                else:
                    self._backlog.appendleft(task_id)
            self._dispatch_locked()
        if crashed_attempt is not None:
            crashed_attempt.end(status="crashed")
        if failed is not None:
            failed.error = DecodeWorkerError(
                f"decode task abandoned after {self.max_task_retries} "
                f"worker crashes"
            )
            failed.event.set()

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> DecodePoolStats:
        with self._lock:
            return DecodePoolStats(
                num_workers=self.num_workers,
                start_method=self.start_method,
                epoch=self._epoch,
                decodes=self._decodes,
                respawns=self._respawns,
                pending=len(self._tasks),
                started=self._started,
                closed=self._closed,
            )

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Shut down workers; fail pending submitters; reclaim weights.

        Idempotent.  ``timeout`` is one shared deadline for the whole
        pool (mirroring :meth:`SchedulingService.close`): worker joins
        consume a common budget, stragglers past it are terminated, then
        killed.  Threads still waiting in :meth:`submit` raise exactly
        ``ServiceError("service closed")`` — the same exception the
        in-process service uses to fail its pending futures.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            collector = self._collector
            pending = list(self._tasks.values())
            self._tasks.clear()
        for item in pending:
            attempt, item.attempt = item.attempt, None
            if attempt is not None:
                attempt.end(status="closed")
            item.error = ServiceError("service closed")
            item.event.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        if started:
            # The collector polls at 0.2s; joining it first means no
            # thread but this one touches the pipes below.
            if collector is not None:
                remaining = (
                    1.0
                    if deadline is None
                    else max(0.3, deadline - time.monotonic())
                )
                collector.join(remaining)
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
            for worker in self._workers:
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                worker.process.join(remaining)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(0.2)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(0.2)
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._weights_finalizer()

    def __enter__(self) -> "DecodeWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# scheduler adapter
# ----------------------------------------------------------------------
def supports_worker_decode(scheduler: object) -> bool:
    """Can ``scheduler`` run its decode in a :class:`DecodeWorkerPool`?

    True only for a :class:`~repro.rl.respect.RespectScheduler`, the one
    scheduler a worker can rebuild from published weights.  Heuristic
    baselines (and already-wrapped adapters) return False, so callers
    can unconditionally attempt wrapping and fall back to in-process
    serving.
    """
    from repro.rl.respect import RespectScheduler

    return isinstance(scheduler, RespectScheduler)


def _postprocess_span(batch_size: int):
    """A ``postprocess`` child of the active span (no-op when untraced)."""
    parent = current_span()
    if parent is None:
        return NOOP_SPAN
    return parent.child("postprocess", batch_size=batch_size)


def unwrap_scheduler(scheduler: object) -> object:
    """The in-process scheduler behind ``scheduler``.

    Sees through a :class:`WorkerDecodeScheduler` (``__getattr__``
    delegation covers attribute reads, but not ``isinstance`` checks —
    the online-adaptation loop's champion checks go through here);
    anything else is returned unchanged.
    """
    if isinstance(scheduler, WorkerDecodeScheduler):
        return scheduler.inner
    return scheduler


class WorkerDecodeScheduler:
    """Scheduler adapter routing the greedy decode through a worker pool.

    Wraps a :class:`~repro.rl.respect.RespectScheduler` (``inner``) whose
    weights were published to ``pool`` as ``epoch``.  ``schedule`` /
    ``schedule_batch`` run the inner scheduler's own decode-to-schedule
    step with one substitution: the decode embeds the graphs, ships
    their encoder queues in one wire decode request and decodes in a
    worker process.  Packing and post-processing stay *in-process* and
    are the inner scheduler's, so results are bit-identical to calling
    it directly (the worker checks this, see the module docstring).

    ``options_fingerprint()`` delegates to the inner scheduler: cache
    keys are unchanged by where the decode runs, which is precisely the
    bit-identity contract.  Unknown attributes delegate too, so code
    reading ``service.scheduler.policy`` (e.g. the online-adaptation
    loop) sees through the adapter.
    """

    def __init__(
        self, inner: object, pool: DecodeWorkerPool, epoch: int
    ) -> None:
        self._inner = inner
        self._pool = pool
        self._epoch = epoch

    # -- transparency --------------------------------------------------
    @property
    def inner(self) -> object:
        """The wrapped in-process scheduler."""
        return self._inner

    @property
    def pool(self) -> DecodeWorkerPool:
        return self._pool

    @property
    def epoch(self) -> int:
        """The weights epoch this adapter tags its decode requests with."""
        return self._epoch

    @property
    def method_name(self) -> str:
        return self._inner.method_name  # type: ignore[attr-defined]

    def options_fingerprint(self) -> str:
        return self._inner.options_fingerprint()  # type: ignore[attr-defined]

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # -- decoding ------------------------------------------------------
    def _decode_remote(
        self, graphs: Sequence[ComputationalGraph]
    ) -> Tuple[List[List[str]], List[float]]:
        # Propagate the active trace (if any) across the process
        # boundary: the round-trip span's ids travel in the request
        # frame, the worker's sub-span records come home in the
        # response frame, and ingest() re-exports them — one span tree
        # spanning two processes.
        parent = current_span()
        roundtrip = None
        trace_ctx = None
        if parent is not None:
            roundtrip = parent.child(
                "decode.workers", batch_size=len(graphs), epoch=self._epoch
            )
            trace_ctx = {
                "trace_id": roundtrip.trace_id,
                "span_id": roundtrip.span_id,
            }
        payload = wire.encode_decode_request(
            graphs,
            options_key=self.options_fingerprint(),
            trace=trace_ctx,
            embedding_config=self._inner.embedding_config,  # type: ignore[attr-defined]
        )
        try:
            raw = self._pool.submit(payload, epoch=self._epoch, span=roundtrip)
            response = wire.decode_decode_response(raw)
        except BaseException:
            if roundtrip is not None:
                roundtrip.end(status="error")
            raise
        if roundtrip is not None:
            if response.spans:
                roundtrip.tracer.ingest(response.spans)
            roundtrip.end()
        if len(response.orders) != len(graphs):
            raise DecodeWorkerError(
                f"worker returned {len(response.orders)} orders for "
                f"{len(graphs)} graphs"
            )
        return response.orders, response.log_probs

    def decode_orders(
        self, graphs: Sequence[ComputationalGraph]
    ) -> List[List[str]]:
        """Worker-side counterpart of ``RespectScheduler.decode_orders``."""
        graphs = list(graphs)
        if not graphs:
            return []
        orders, _ = self._decode_remote(graphs)
        return orders

    # -- scheduler interface -------------------------------------------
    def schedule(
        self, graph: ComputationalGraph, num_stages: int
    ) -> ScheduleResult:
        """Bit-identical to ``inner.schedule`` with a worker-side decode."""
        return self._inner._schedule_decoded(  # type: ignore[attr-defined]
            [graph],
            num_stages,
            self._decode_remote,
            postprocess_span=_postprocess_span,
            worker_decode=True,
        )[0]

    def schedule_batch(
        self,
        graphs: Sequence[ComputationalGraph],
        num_stages: Union[int, Sequence[int]],
    ) -> List[ScheduleResult]:
        """Bit-identical to ``inner.schedule_batch`` (one worker decode)."""
        return self._inner._schedule_decoded(  # type: ignore[attr-defined]
            graphs,
            num_stages,
            self._decode_remote,
            amortized_over="batch",
            postprocess_span=_postprocess_span,
            worker_decode=True,
        )


__all__ = [
    "DecodePoolStats",
    "DecodeWorkerPool",
    "WorkerDecodeScheduler",
    "supports_worker_decode",
    "unwrap_scheduler",
]
