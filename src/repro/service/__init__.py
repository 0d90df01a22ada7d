"""High-throughput scheduling service (fingerprint cache + micro-batching).

The serving layer toward the ROADMAP's production north star: a
:class:`SchedulingService` that accepts concurrent ``submit`` requests,
answers repeats from a schedule store keyed by exact graph content
fingerprints, coalesces identical in-flight requests, aggregates the
rest into micro-batches for the scheduler's vectorized
``schedule_batch``, and returns futures whose schedules are
bit-identical to direct ``scheduler.schedule`` calls.

The same class scales horizontally with ``num_shards=N``: requests are
consistent-hashed by graph fingerprint across N shards (private store,
micro-batcher and hot-swap slot each), behind bounded admission (block /
shed / degrade backpressure policies) and an async ``asubmit`` facade.
One shard, the default, is the same service with the ring skipped.

The service optionally runs the policy decode **outside the GIL**: with
``decode_workers=N`` the greedy pointer-network decode is dispatched to
a :class:`DecodeWorkerPool` of worker processes over the versioned
:mod:`repro.service.wire` format, with bit-identical schedules,
hot-swap propagation via weights epochs, and crash-respawned workers.

Storage is configured one way.  Every shard answers from a
:class:`TieredScheduleStore`: an LRU :class:`ScheduleCache` over an
optional crash-safe, content-addressed :class:`DiskScheduleStore`
namespace (:class:`StoreNamespace`).  Pass ``store_dir=`` to have the
service open and own a persistent one (a rebooted service then serves
previously solved graphs without re-solving), ``stores=`` (one per
shard) to mount caller-owned ones, or neither for memory-only stores of
``cache_capacity`` entries — see :mod:`repro.service.store`.
"""

from repro.service.cache import CachedSchedule, CacheKey, ScheduleCache
from repro.service.store import (
    CompactionStats,
    DiskScheduleStore,
    DiskStoreStats,
    StoreNamespace,
    TieredScheduleStore,
    TieredStoreStats,
)
from repro.service.service import (
    SchedulingService,
    ServiceStats,
    build_hash_ring,
    scheduler_options_key,
    shard_for_fingerprint,
)
from repro.service.workers import (
    DecodePoolStats,
    DecodeWorkerPool,
    WorkerDecodeScheduler,
    supports_worker_decode,
    unwrap_scheduler,
)

__all__ = [
    "CachedSchedule",
    "CacheKey",
    "CompactionStats",
    "DecodePoolStats",
    "DecodeWorkerPool",
    "DiskScheduleStore",
    "DiskStoreStats",
    "ScheduleCache",
    "SchedulingService",
    "ServiceStats",
    "StoreNamespace",
    "TieredScheduleStore",
    "TieredStoreStats",
    "WorkerDecodeScheduler",
    "build_hash_ring",
    "scheduler_options_key",
    "shard_for_fingerprint",
    "supports_worker_decode",
    "unwrap_scheduler",
]
