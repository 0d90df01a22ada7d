"""Thread-safe LRU cache of solved schedules.

The cache stores *graph-independent* payloads: a stage assignment plus
the scheduler's reported method/objective/status.  A
:class:`CachedSchedule` deliberately does not hold the
:class:`~repro.graphs.dag.ComputationalGraph` it was solved on — the
service rebinds the assignment to whichever (content-identical) graph
object the requester supplied, so cached entries never pin large graphs
in memory and a served :class:`~repro.scheduling.schedule.Schedule`
always references the caller's own graph.

Keys are built by :meth:`ScheduleCache.make_key` from the graph's exact
content fingerprint, the requested stage count, and the scheduler's
options fingerprint (packer options + policy weights for RESPECT); see
:func:`repro.graphs.fingerprint.graph_fingerprint` for why that key is
exactly as discriminating as the scheduler itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ServiceError

#: Cache key: (graph fingerprint, num_stages, scheduler options key).
CacheKey = Tuple[str, int, str]


@dataclass(frozen=True)
class CachedSchedule:
    """Graph-independent payload of one solved schedule."""

    assignment: Mapping[str, int]
    num_stages: int
    method: str
    objective: float
    status: str
    solve_time: float
    #: Who produced this schedule: the scheduler options fingerprint and
    #: (when the decode ran in a worker pool) the published weights
    #: epoch.  Carried into the persistent tier so a store directory can
    #: be audited entry by entry; ``None`` for entries that predate the
    #: provenance field.
    provenance: Optional[Mapping[str, object]] = None


class ScheduleCache:
    """Bounded LRU mapping from :data:`CacheKey` to :class:`CachedSchedule`.

    All operations are safe under concurrent access; a hit refreshes the
    entry's recency, insertion beyond ``capacity`` evicts the least
    recently used entry.  The cache counts only its own events
    (``evictions`` and ``invalidations``); lookups are counted once, by
    the serving shard's ``respect_tier_lookups_total`` series.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CachedSchedule]" = OrderedDict()
        #: Secondary index options_key -> keys cached under it, kept in
        #: lockstep with ``_entries`` so ``invalidate_options`` touches
        #: only the stale keys (O(stale)) instead of scanning the whole
        #: cache under the lock on every hot-swap.
        self._by_options: Dict[str, set] = {}
        self._evictions = 0
        self._invalidations = 0

    @staticmethod
    def make_key(fingerprint: str, num_stages: int, options_key: str) -> CacheKey:
        """Canonical cache key for one (graph, stage count, scheduler)."""
        return (str(fingerprint), int(num_stages), str(options_key))

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[CachedSchedule]:
        """Return the cached payload for ``key`` (refreshing recency)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: CacheKey, value: CachedSchedule) -> None:
        """Insert/refresh ``key``, evicting LRU entries beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self._by_options.setdefault(key[2], set()).add(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._drop_from_options_index(evicted)
                self._evictions += 1

    def _drop_from_options_index(self, key: CacheKey) -> None:
        # Caller holds self._lock.
        keys = self._by_options.get(key[2])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_options[key[2]]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (eviction/invalidation counts are kept)."""
        with self._lock:
            self._entries.clear()
            self._by_options.clear()

    def invalidate_options(self, options_key: str) -> int:
        """Evict every entry keyed under ``options_key``; returns count.

        Schedules depend on the scheduler's options fingerprint, so when
        a scheduler configuration is retired — most prominently when a
        hot-swap replaces the policy behind a
        :class:`~repro.service.SchedulingService` — all entries solved
        under the old fingerprint become unreachable garbage.  This drops
        them eagerly via the secondary ``options_key -> keys`` index, so
        the time under the lock is O(stale entries), not O(cache size) —
        a hot-swap on a full, busy cache evicts only what it retires.
        LRU order of the surviving entries is untouched.
        """
        options_key = str(options_key)
        with self._lock:
            stale = self._by_options.pop(options_key, None)
            if not stale:
                return 0
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    @property
    def evictions(self) -> int:
        """Entries dropped by capacity pressure."""
        with self._lock:
            return self._evictions

    @property
    def invalidations(self) -> int:
        """Entries dropped by :meth:`invalidate_options`."""
        with self._lock:
            return self._invalidations


__all__ = ["CacheKey", "CachedSchedule", "ScheduleCache"]
