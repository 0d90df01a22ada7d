"""Tests for the LRU schedule cache."""

import threading

import pytest

from repro.errors import ServiceError
from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.heuristics import ListScheduler
from repro.service import (
    CachedSchedule,
    ScheduleCache,
    SchedulingService,
    scheduler_options_key,
)


def _payload(tag: int) -> CachedSchedule:
    return CachedSchedule(
        assignment={"a": 0, "b": tag % 2},
        num_stages=2,
        method="fake",
        objective=float(tag),
        status="ok",
        solve_time=0.001,
    )


def _key(tag: int):
    return ScheduleCache.make_key(f"fp{tag}", 2, "opts")


class TestScheduleCache:
    def test_put_get_round_trip(self):
        cache = ScheduleCache(capacity=4)
        cache.put(_key(1), _payload(1))
        assert cache.get(_key(1)) == _payload(1)
        assert cache.get(_key(2)) is None

    def test_lru_eviction_order(self):
        cache = ScheduleCache(capacity=2)
        cache.put(_key(1), _payload(1))
        cache.put(_key(2), _payload(2))
        cache.get(_key(1))  # refresh 1 -> 2 becomes LRU
        cache.put(_key(3), _payload(3))
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(3)) is not None
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = ScheduleCache(capacity=2)
        cache.put(_key(1), _payload(1))
        cache.put(_key(2), _payload(2))
        cache.put(_key(1), _payload(9))  # refresh, not insert
        cache.put(_key(3), _payload(3))  # evicts 2, not 1
        assert cache.get(_key(1)).objective == 9.0
        assert cache.get(_key(2)) is None

    def test_counters(self):
        # The LRU counts only its own events; lookups are the shard's.
        cache = ScheduleCache(capacity=1)
        cache.get(_key(1))
        cache.put(_key(1), _payload(1))
        cache.get(_key(1))
        cache.put(_key(2), _payload(2))  # evicts 1
        assert cache.evictions == 1
        assert cache.invalidations == 0
        assert len(cache) == 1
        assert cache.capacity == 1

    def test_hit_rate_without_lookups(self):
        with SchedulingService(ListScheduler()) as service:
            stats = service.stats().cache
        assert (stats.hits, stats.misses, stats.hit_rate) == (0, 0, 0.0)

    def test_clear_keeps_counters(self):
        cache = ScheduleCache(capacity=1)
        cache.put(_key(1), _payload(1))
        cache.put(_key(2), _payload(2))  # evicts 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(_key(2)) is None
        assert cache.evictions == 1

    def test_contains(self):
        cache = ScheduleCache(capacity=4)
        cache.put(_key(1), _payload(1))
        assert _key(1) in cache
        assert _key(2) not in cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            ScheduleCache(capacity=0)

    def test_concurrent_hammering_stays_consistent(self):
        cache = ScheduleCache(capacity=16)
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(200):
                    tag = base * 200 + i
                    cache.put(_key(tag % 32), _payload(tag % 32))
                    entry = cache.get(_key(tag % 32))
                    if entry is not None:
                        assert entry.objective == float(tag % 32)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16


class TestInvalidateOptions:
    def _key(self, tag: int, opts: str):
        return ScheduleCache.make_key(f"fp{tag}", 2, opts)

    def test_evicts_only_matching_options(self):
        cache = ScheduleCache(capacity=8)
        for tag in range(3):
            cache.put(self._key(tag, "old"), _payload(tag))
        for tag in range(2):
            cache.put(self._key(tag, "new"), _payload(tag + 10))
        removed = cache.invalidate_options("old")
        assert removed == 3
        assert len(cache) == 2
        for tag in range(3):
            assert cache.get(self._key(tag, "old")) is None
        for tag in range(2):
            assert cache.get(self._key(tag, "new")) is not None

    def test_counts_invalidations_separately_from_evictions(self):
        cache = ScheduleCache(capacity=2)
        cache.put(self._key(1, "old"), _payload(1))
        cache.put(self._key(2, "old"), _payload(2))
        cache.put(self._key(3, "old"), _payload(3))  # LRU-evicts key 1
        cache.invalidate_options("old")
        assert cache.evictions == 1
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_missing_options_key_is_noop(self):
        cache = ScheduleCache(capacity=4)
        cache.put(self._key(1, "old"), _payload(1))
        assert cache.invalidate_options("absent") == 0
        assert len(cache) == 1
        assert cache.invalidations == 0

    def test_lru_order_of_survivors_preserved(self):
        cache = ScheduleCache(capacity=2)
        cache.put(self._key(1, "keep"), _payload(1))
        cache.put(self._key(2, "drop"), _payload(2))
        cache.put(self._key(3, "keep"), _payload(3))  # evicts key 1 (LRU)
        cache.invalidate_options("drop")
        # Survivor (key 3) still evictable by LRU pressure as usual.
        cache.put(self._key(4, "keep"), _payload(4))
        cache.put(self._key(5, "keep"), _payload(5))
        assert cache.get(self._key(3, "keep")) is None
        assert cache.get(self._key(5, "keep")) is not None

    def test_hit_miss_counters_survive_invalidation(self):
        graph = sample_synthetic_dag(num_nodes=10, degree=3, seed=0)
        scheduler = ListScheduler()
        with SchedulingService(scheduler, batch_window_s=0.0) as service:
            service.schedule(graph, 2)  # miss
            service.schedule(graph, 2)  # hit
            assert service.invalidate_options(
                scheduler_options_key(scheduler)
            ) == 1
            stats = service.stats().cache
        assert stats.hits == 1
        assert stats.misses == 1  # invalidation added no lookups
        assert stats.invalidations == 1


class TestOptionsIndex:
    """The secondary options_key -> keys index behind O(stale) invalidation."""

    def _key(self, tag: int, opts: str):
        return ScheduleCache.make_key(f"fp{tag}", 2, opts)

    def test_index_stays_in_lockstep_through_churn(self):
        cache = ScheduleCache(capacity=4)
        for tag in range(8):  # 4 evictions
            cache.put(self._key(tag, f"opt{tag % 2}"), _payload(tag))
        cache.put(self._key(7, "opt1"), _payload(7))  # refresh, no dup
        # The index never references evicted/over-written keys: every
        # indexed key must be a live entry and vice versa.
        indexed = {k for keys in cache._by_options.values() for k in keys}
        assert indexed == set(cache._entries)
        # Invalidation therefore counts exactly the live entries.
        assert cache.invalidate_options("opt0") == 2
        assert cache.invalidate_options("opt1") == 2
        assert len(cache) == 0
        assert cache._by_options == {}

    def test_clear_resets_index(self):
        cache = ScheduleCache(capacity=4)
        cache.put(self._key(1, "old"), _payload(1))
        cache.clear()
        assert cache._by_options == {}
        assert cache.invalidate_options("old") == 0

    def test_exact_lru_order_untouched_by_invalidation(self):
        # Survivors must evict in exactly the pre-invalidation order —
        # not merely "eventually evictable" (a rebuild that reinserted
        # survivors would pass a weaker check but corrupt recency).
        cache = ScheduleCache(capacity=4)
        cache.put(self._key(1, "keep"), _payload(1))
        cache.put(self._key(2, "drop"), _payload(2))
        cache.put(self._key(3, "keep"), _payload(3))
        cache.put(self._key(4, "keep"), _payload(4))
        cache.get(self._key(1, "keep"))  # LRU order now: 2, 3, 4, 1
        cache.invalidate_options("drop")
        assert list(cache._entries) == [
            self._key(3, "keep"),
            self._key(4, "keep"),
            self._key(1, "keep"),
        ]

    def test_repeated_invalidation_counts_once(self):
        cache = ScheduleCache(capacity=4)
        cache.put(self._key(1, "old"), _payload(1))
        assert cache.invalidate_options("old") == 1
        assert cache.invalidate_options("old") == 0
        assert cache.invalidations == 1


class TestCachedScheduleProvenance:
    def test_provenance_defaults_to_none(self):
        assert _payload(1).provenance is None

    def test_provenance_round_trips(self):
        cache = ScheduleCache(capacity=2)
        tagged = CachedSchedule(
            assignment={"a": 0},
            num_stages=1,
            method="fake",
            objective=1.0,
            status="ok",
            solve_time=0.0,
            provenance={"options_fingerprint": "opts", "weights_epoch": 7},
        )
        cache.put(_key(1), tagged)
        assert cache.get(_key(1)).provenance == {
            "options_fingerprint": "opts",
            "weights_epoch": 7,
        }
