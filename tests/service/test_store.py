"""Tests for the persistent tiered schedule store.

Covers the disk tier's round-trip/replay/rotation behavior, the tiered
read-through/write-through stack, durable (tombstoned) invalidation —
and every disk-tier load failure mode the issue enumerates: truncated
segment, flipped CRC byte, wrong-version frame, missing index snapshot,
and an index snapshot pointing past a segment's EOF.  Each must recover
to a consistent store (counted, never a crash) and never serve a
corrupt or stale-provenance schedule.
"""

import json
import struct
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.heuristics import ListScheduler
from repro.service import (
    CachedSchedule,
    DiskScheduleStore,
    ScheduleCache,
    SchedulingService,
    TieredScheduleStore,
)
from repro.service.wire import MAGIC, WIRE_VERSION


def _payload(tag: int, opts: str = "opts") -> CachedSchedule:
    return CachedSchedule(
        assignment={"a": 0, "b": tag % 3},
        num_stages=3,
        method="fake",
        objective=float(tag),
        status="ok",
        solve_time=0.001,
        provenance={"options_fingerprint": opts, "weights_epoch": tag},
    )


def _key(tag: int, opts: str = "opts"):
    return ScheduleCache.make_key(f"fp{tag}", 3, opts)


def _segment_paths(directory) -> "list[Path]":
    return sorted(Path(directory, "segments").glob("seg-*.rsps"))


def _fill(store: DiskScheduleStore, count: int, opts: str = "opts") -> None:
    ns = store.namespace()
    for tag in range(count):
        ns.put(_key(tag, opts), _payload(tag, opts))


class TestDiskStoreBasics:
    def test_round_trip_within_one_process(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            ns = store.namespace()
            ns.put(_key(1), _payload(1))
            assert _key(1) in ns
            got = ns.get(_key(1))
            assert got.assignment == {"a": 0, "b": 1}
            assert got.provenance["weights_epoch"] == 1
            assert ns.get(_key(2)) is None
            stats = store.stats()
            assert stats.appended == 1 and stats.read_errors == 0

    def test_entries_survive_reopen(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            _fill(store, 5)
        with DiskScheduleStore(tmp_path) as store:
            assert len(store) == 5
            assert store.namespace().get(_key(3)).objective == 3.0

    def test_namespaces_are_isolated(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            store.namespace("shard-0").put(_key(1), _payload(1))
            store.namespace("shard-1").put(_key(1), _payload(2))
            assert store.namespace("shard-0").get(_key(1)).objective == 1.0
            assert store.namespace("shard-1").get(_key(1)).objective == 2.0
            assert store.namespace("shard-2").get(_key(1)) is None
            assert store.namespaces() == ["shard-0", "shard-1"]
            # Invalidation in one namespace leaves the twin untouched.
            assert store.namespace("shard-0").invalidate_options("opts") == 1
            assert store.namespace("shard-1").get(_key(1)) is not None

    def test_put_overwrites_latest_wins(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            ns = store.namespace()
            ns.put(_key(1), _payload(1))
            ns.put(_key(1), _payload(9))
            assert ns.get(_key(1)).objective == 9.0
        with DiskScheduleStore(tmp_path) as store:
            assert store.namespace().get(_key(1)).objective == 9.0
            assert len(store) == 1

    def test_segment_rotation(self, tmp_path):
        with DiskScheduleStore(tmp_path, max_segment_bytes=1024) as store:
            _fill(store, 30)
            assert store.stats().segments > 1
            assert len(store) == 30
        with DiskScheduleStore(tmp_path, max_segment_bytes=1024) as store:
            assert len(store) == 30

    def test_closed_store_rejects_use(self, tmp_path):
        store = DiskScheduleStore(tmp_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(ServiceError):
            store.namespace().put(_key(1), _payload(1))
        with pytest.raises(ServiceError):
            store.namespace().get(_key(1))
        with pytest.raises(ServiceError):
            store.snapshot()

    def test_keys_in_append_order(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            _fill(store, 4)
            assert store.namespace().keys() == [_key(t) for t in range(4)]

    def test_bad_construction_args(self, tmp_path):
        with pytest.raises(ServiceError):
            DiskScheduleStore(tmp_path, max_segment_bytes=10)
        with pytest.raises(ServiceError):
            DiskScheduleStore(tmp_path, snapshot_every=-1)
        with DiskScheduleStore(tmp_path) as store:
            with pytest.raises(ServiceError):
                store.namespace("")


class TestDurableInvalidation:
    def test_tombstone_survives_reopen(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            _fill(store, 3, "old")
            _fill(store, 2, "new")
            assert store.namespace().invalidate_options("old") == 3
            assert len(store) == 2
        with DiskScheduleStore(tmp_path) as store:
            assert len(store) == 2
            assert store.namespace().get(_key(0, "old")) is None
            assert store.namespace().get(_key(0, "new")) is not None

    def test_tombstone_survives_reopen_without_snapshot(self, tmp_path):
        # Durability must come from the appended tombstone frame itself,
        # not from the index snapshot: nuke the snapshot and replay.
        with DiskScheduleStore(tmp_path, snapshot_every=0) as store:
            _fill(store, 3, "old")
            store.namespace().invalidate_options("old")
        (tmp_path / "index.json").unlink()
        with DiskScheduleStore(tmp_path) as store:
            assert len(store) == 0
            assert store.namespace().get(_key(0, "old")) is None

    def test_republished_entries_outlive_earlier_tombstone(self, tmp_path):
        # Order matters: a tombstone retires only entries written before
        # it, so re-publishing under the same options key (champion
        # rollback) works — on disk and across replay.
        with DiskScheduleStore(tmp_path, snapshot_every=0) as store:
            _fill(store, 2, "old")
            store.namespace().invalidate_options("old")
            store.namespace().put(_key(0, "old"), _payload(42, "old"))
        (tmp_path / "index.json").unlink()
        with DiskScheduleStore(tmp_path) as store:
            assert len(store) == 1
            assert store.namespace().get(_key(0, "old")).objective == 42.0

    def test_invalidating_absent_options_still_appends_tombstone(self, tmp_path):
        with DiskScheduleStore(tmp_path) as store:
            assert store.namespace().invalidate_options("ghost") == 0
            assert store.stats().tombstones == 1


class TestFaultInjection:
    """The five mandated load-failure modes, plus read-time damage."""

    def _store_with_entries(self, tmp_path, count=6):
        store = DiskScheduleStore(tmp_path, snapshot_every=0)
        _fill(store, count)
        store.close()
        return _segment_paths(tmp_path)[0]

    def test_truncated_segment(self, tmp_path):
        segment = self._store_with_entries(tmp_path)
        (tmp_path / "index.json").unlink()
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 11])  # torn tail write
        with DiskScheduleStore(tmp_path) as store:
            stats = store.stats()
            assert stats.entries == 5
            assert stats.corrupt_frames_skipped == 1
            assert stats.index_rebuilds == 1
            assert store.namespace().get(_key(5)) is None  # never served
            for tag in range(5):
                assert store.namespace().get(_key(tag)).objective == float(tag)

    def test_flipped_crc(self, tmp_path):
        segment = self._store_with_entries(tmp_path)
        (tmp_path / "index.json").unlink()
        data = bytearray(segment.read_bytes())
        frame_len = len(data) // 6
        # Corrupt the payload of the third frame: its CRC check fails.
        data[2 * frame_len + frame_len // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        with DiskScheduleStore(tmp_path) as store:
            stats = store.stats()
            assert stats.entries == 5
            assert stats.corrupt_frames_skipped >= 1
            assert stats.bytes_skipped > 0
            assert store.namespace().get(_key(2)) is None
            # Frames *after* the damage were resynchronized, not lost.
            for tag in (3, 4, 5):
                assert store.namespace().get(_key(tag)) is not None

    def test_wrong_version_frame(self, tmp_path):
        segment = self._store_with_entries(tmp_path)
        (tmp_path / "index.json").unlink()
        data = bytearray(segment.read_bytes())
        frame_len = len(data) // 6
        # Frame layout: MAGIC(4) | version(1) | ... — stamp a version
        # this codec does not speak onto the fourth frame.
        assert data[3 * frame_len : 3 * frame_len + 4] == MAGIC
        data[3 * frame_len + 4] = WIRE_VERSION + 1
        segment.write_bytes(bytes(data))
        with DiskScheduleStore(tmp_path) as store:
            stats = store.stats()
            assert stats.entries == 5
            assert stats.corrupt_frames_skipped >= 1
            assert store.namespace().get(_key(3)) is None
            for tag in (0, 1, 2, 4, 5):
                assert store.namespace().get(_key(tag)) is not None

    def test_missing_index(self, tmp_path):
        self._store_with_entries(tmp_path)
        (tmp_path / "index.json").unlink()
        with DiskScheduleStore(tmp_path) as store:
            stats = store.stats()
            assert stats.entries == 6
            assert stats.index_rebuilds == 1
            assert stats.corrupt_frames_skipped == 0
            for tag in range(6):
                assert store.namespace().get(_key(tag)).objective == float(tag)

    def test_index_pointing_past_eof(self, tmp_path):
        segment = self._store_with_entries(tmp_path)
        index_path = tmp_path / "index.json"
        snapshot = json.loads(index_path.read_text())
        # Lie: claim the segment holds (and entries live in) bytes far
        # past its actual EOF — e.g. the segment was truncated by a
        # crash after the snapshot was written.
        size = segment.stat().st_size
        snapshot["segments"][segment.name] = size + 4096
        snapshot["entries"][-1][5] = size + 1024  # offset past EOF
        index_path.write_text(json.dumps(snapshot))
        with DiskScheduleStore(tmp_path) as store:
            stats = store.stats()
            # The lying snapshot is discarded wholesale; the segments
            # (ground truth) are rescanned and every entry recovered.
            assert stats.index_rebuilds == 1
            assert stats.entries == 6
            for tag in range(6):
                assert store.namespace().get(_key(tag)).objective == float(tag)

    def test_corrupt_index_json(self, tmp_path):
        self._store_with_entries(tmp_path)
        (tmp_path / "index.json").write_text("{not json")
        with DiskScheduleStore(tmp_path) as store:
            assert store.stats().index_rebuilds == 1
            assert store.stats().entries == 6

    def test_read_time_damage_degrades_to_miss(self, tmp_path):
        # Damage landing *after* open (index already points at the
        # frame): the read fails its CRC, the entry is dropped and
        # counted, and the caller sees a miss — never a corrupt result.
        store = DiskScheduleStore(tmp_path, snapshot_every=0)
        _fill(store, 2)
        segment = _segment_paths(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 4] ^= 0xFF  # corrupt the first frame in place
        segment.write_bytes(bytes(data))
        assert store.namespace().get(_key(0)) is None
        stats = store.stats()
        assert stats.read_errors == 1
        assert stats.entries == 1
        assert store.namespace().get(_key(1)) is not None
        store.close()

    def test_tombstones_behind_corruption_still_apply(self, tmp_path):
        # A tombstone written after a later-damaged frame must still be
        # replayed (resync), or a retired champion's entries would
        # resurrect — the exact failure the issue forbids.
        store = DiskScheduleStore(tmp_path, snapshot_every=0)
        _fill(store, 2, "old")
        boundary = store.stats()  # entries appended so far
        assert boundary.entries == 2
        store.namespace().invalidate_options("old")
        store.close()
        (tmp_path / "index.json").unlink()
        segment = _segment_paths(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[10] ^= 0xFF  # corrupt the very first entry frame
        segment.write_bytes(bytes(data))
        with DiskScheduleStore(tmp_path) as reopened:
            # Entry 0's frame is damage-skipped; entry 1 resyncs back in;
            # the trailing tombstone then retires it.  Nothing survives.
            assert len(reopened) == 0
            assert reopened.namespace().get(_key(0, "old")) is None
            assert reopened.namespace().get(_key(1, "old")) is None
            assert reopened.stats().tombstones == 1


class TestSnapshot:
    def test_snapshot_bounds_replay(self, tmp_path):
        with DiskScheduleStore(tmp_path, snapshot_every=0) as store:
            _fill(store, 4)
            store.snapshot()
            _fill(store, 2, "late")
        # close() snapshots too; drop that to prove the mid-run snapshot
        # plus tail replay reconstructs everything.
        with DiskScheduleStore(tmp_path) as store:
            assert len(store) == 6

    def test_interrupted_snapshot_leaves_previous_intact(self, tmp_path):
        with DiskScheduleStore(tmp_path, snapshot_every=0) as store:
            _fill(store, 3)
            store.snapshot()
        # Simulate a crash mid-rewrite: a tmp file exists, index intact.
        (tmp_path / "index.json.tmp").write_text("garbage")
        with DiskScheduleStore(tmp_path) as store:
            assert store.stats().index_rebuilds == 0
            assert len(store) == 3

    def test_auto_snapshot_after_threshold(self, tmp_path):
        store = DiskScheduleStore(tmp_path, snapshot_every=3)
        _fill(store, 3)
        assert (tmp_path / "index.json").exists()
        store._append_handle.close()  # leak-proof: bypass close's snapshot
        store._closed = True


class TestTieredStore:
    def test_read_through_promotes_disk_hits(self, tmp_path):
        with DiskScheduleStore(tmp_path) as disk:
            disk.namespace().put(_key(1), _payload(1))
            tiered = TieredScheduleStore(
                disk=disk.namespace(), memory_capacity=4
            )
            entry, tier = tiered.lookup(_key(1))
            assert (entry.objective, tier) == (1.0, "disk")
            assert len(tiered.memory) == 1  # promoted
            _, tier = tiered.lookup(_key(1))
            assert tier == "memory"  # memory served it
            assert tiered.lookup(_key(2)) == (None, None)

    def test_write_through_and_contains(self, tmp_path):
        with DiskScheduleStore(tmp_path) as disk:
            tiered = TieredScheduleStore(
                disk=disk.namespace(), memory_capacity=1
            )
            tiered.put(_key(1), _payload(1))
            tiered.put(_key(2), _payload(2))  # key 1 LRU-evicted
            assert len(tiered.memory) == 1
            assert _key(1) in tiered  # still answerable from disk
            assert tiered.get(_key(1)) is not None
            assert len(tiered) == 2

    def test_invalidation_reaches_both_tiers(self, tmp_path):
        with DiskScheduleStore(tmp_path) as disk:
            tiered = TieredScheduleStore(
                disk=disk.namespace(), memory_capacity=4
            )
            tiered.put(_key(1, "old"), _payload(1, "old"))
            tiered.put(_key(2, "new"), _payload(2, "new"))
            assert tiered.invalidate_options("old") == 1
            assert tiered.get(_key(1, "old")) is None
            assert len(tiered.memory) == 1
            assert disk.stats().tombstones == 1

    def test_memory_only_stack_is_transparent(self):
        tiered = TieredScheduleStore(memory_capacity=2)
        tiered.put(_key(1), _payload(1))
        assert tiered.get(_key(1)) is not None
        assert tiered.restore() == 0
        with pytest.raises(ServiceError):
            tiered.snapshot()

    def test_restore_preloads_most_recent(self, tmp_path):
        with DiskScheduleStore(tmp_path) as disk:
            for tag in range(6):
                disk.namespace().put(_key(tag), _payload(tag))
            tiered = TieredScheduleStore(
                disk=disk.namespace(), memory_capacity=3
            )
            assert tiered.restore() == 3
            # The 3 most recently appended entries are the ones in memory.
            assert {key[0] for key in tiered.memory._entries} == {
                "fp3",
                "fp4",
                "fp5",
            }

    def test_service_snapshot_reads_the_lookup_series(self, tmp_path):
        graphs = [
            sample_synthetic_dag(num_nodes=10, degree=3, seed=seed)
            for seed in range(2)
        ]
        with SchedulingService(
            ListScheduler(),
            store_dir=str(tmp_path),
            cache_capacity=4,
            batch_window_s=0.0,
        ) as service:
            service.schedule(graphs[0], 3)  # miss
            service.schedule(graphs[0], 3)  # memory hit
            service.schedule(graphs[1], 3)  # miss
            stats = service.stats().cache
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.disk_hits == 0
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.size == 2
        assert stats.capacity == 4
        assert stats.evictions == 0
        assert stats.disk.entries == 2 and stats.disk.appended == 2
