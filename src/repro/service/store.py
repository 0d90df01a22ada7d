"""Tiered, persistent, content-addressed schedule store.

The serving tier's answer to "fast for the first million requests after
a deploy": the in-memory LRU :class:`~repro.service.cache.ScheduleCache`
is one *tier* of a pluggable store stack, layered over a crash-safe disk
tier so solved schedules survive process restarts and are shared across
fleet builds.

Three classes compose the subsystem:

:class:`DiskScheduleStore`
    The durable tier.  Entries are appended to content-addressed,
    append-only **segment files** of :mod:`repro.service.wire` store
    frames (``RSPW``-framed, CRC-checksummed); an in-memory index maps
    ``(namespace, fingerprint, num_stages, options_key)`` to a segment
    offset and is rebuilt on open — from an atomic **index snapshot**
    (the :mod:`repro.rl.checkpoints` write-then-rename pattern) plus a
    replay of whatever was appended after it, or from a full segment
    scan when the snapshot is missing or lies about the files.  Every
    way a segment can be damaged — a torn tail write, a flipped bit, a
    frame from a different wire version — is *skipped and counted*
    (:class:`~repro.errors.WireFormatError` is the detection mechanism,
    never the crash), and the scanner resynchronizes on the next valid
    frame so entries and tombstones behind a corruption are not lost.

    Invalidation is durable: retiring a scheduler configuration appends
    a **tombstone** frame, and replay applies entries and tombstones in
    append order — a promoted challenger durably obsoletes the retired
    champion's entries instead of resurrecting them on the next boot,
    while entries a *later* generation re-publishes under the same
    options key survive (rollbacks keep working).

:class:`StoreNamespace`
    A view of one ``namespace`` inside a shared store: the disk tier of
    a :class:`TieredScheduleStore`.  Namespaces give each shard of a
    :class:`~repro.service.SchedulingService` (and each method of a
    served comparison dict) its own keyspace in one store directory,
    preserving consistent-hash affinity across restarts.

:class:`TieredScheduleStore`
    The read-through/write-through stack, and the only object a service
    mounts: ``get`` answers from the LRU, falls through to disk on a
    miss and promotes disk hits into memory; ``put`` writes through to
    both tiers; ``invalidate_options`` evicts from every tier (memory
    drop + durable tombstone).  With ``disk=None`` it is a memory-only
    store — what a service builds when given no ``store_dir``.

Durability model: appends are flushed to the OS on every ``put`` (a
process crash loses nothing), and ``snapshot()`` additionally fsyncs the
active segment and atomically rewrites the index snapshot (a machine
crash then loses at most the un-fsynced tail, which the torn-frame scan
absorbs).  Opening a store never requires a snapshot — the segments
alone are the source of truth.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import ServiceError, WireFormatError
from repro.service.cache import CachedSchedule, CacheKey, CacheStats, ScheduleCache
from repro.service.wire import (
    HEADER_SIZE,
    KIND_STORE_ENTRY,
    KIND_STORE_TOMBSTONE,
    MAGIC,
    StoreEntryRecord,
    StoreTombstoneRecord,
    decode_store_entry,
    decode_store_tombstone,
    encode_store_entry,
    encode_store_tombstone,
    frame_info,
)

#: Store key inside a shared store: the cache key scoped by a namespace.
StoreKey = Tuple[str, str, int, str]

#: Default namespace used by single (unsharded) services.
DEFAULT_NAMESPACE = "default"

#: Rotate the active segment beyond this many bytes.  Segments are read
#: whole during scans, so the cap bounds both scan memory and the blast
#: radius of an unrecoverable corruption.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: Bumped when the index-snapshot layout changes incompatibly (the
#: segments remain readable either way — an unknown snapshot version
#: just forces a full scan).
INDEX_FORMAT_VERSION = 1

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".rsps"


@dataclass(frozen=True)
class DiskStoreStats:
    """Point-in-time counters of one :class:`DiskScheduleStore`."""

    entries: int
    segments: int
    hits: int
    misses: int
    appended: int
    invalidations: int
    tombstones: int
    #: Damaged frames skipped (and counted, never raised) during scans.
    corrupt_frames_skipped: int
    #: Bytes stepped over while resynchronizing past damaged regions.
    bytes_skipped: int
    #: Entries dropped at read time because their frame failed to decode.
    read_errors: int
    #: Full segment scans forced by a missing/invalid/lying snapshot.
    index_rebuilds: int


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one :meth:`DiskScheduleStore.compact` pass."""

    #: Entries copied into the fresh segment generation.
    entries_live: int
    #: Indexed entries whose frames no longer decoded (dropped, counted
    #: in ``read_errors`` too — compaction never copies garbage).
    entries_dropped: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


@dataclass(frozen=True)
class TieredStoreStats:
    """Stats of a :class:`TieredScheduleStore`, CacheStats-compatible.

    The top-level counters describe the *stack* (a hit in either tier is
    a hit; ``size`` is the durable tier's entry count when one is
    mounted), so consumers written against
    :class:`~repro.service.cache.CacheStats` read them unchanged; the
    per-tier breakdowns ride alongside.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    invalidations: int
    #: Disk hits promoted into the memory tier (subset of ``hits``).
    disk_hits: int
    memory: CacheStats
    disk: Optional[DiskStoreStats]

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


class DiskScheduleStore:
    """Crash-safe, append-only, content-addressed schedule store.

    Parameters
    ----------
    directory:
        Store root; created if missing.  Layout: ``segments/seg-*.rsps``
        append-only frame files plus an ``index.json`` snapshot.
    max_segment_bytes:
        Rotation threshold for the active segment.
    snapshot_every:
        Automatically snapshot the index after this many appended
        frames (entries + tombstones); ``0`` disables auto-snapshots
        (``snapshot()``/``close()`` still write one).  Auto-snapshots
        bound the replay tail a reopen has to scan.

    All methods are thread-safe.  The store never raises on damaged
    segment bytes: every torn/truncated/corrupt/wrong-version frame is
    skipped and counted in :meth:`stats`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        snapshot_every: int = 256,
    ) -> None:
        if max_segment_bytes < 1024:
            raise ServiceError(
                f"max_segment_bytes must be >= 1024, got {max_segment_bytes}"
            )
        if snapshot_every < 0:
            raise ServiceError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.directory = Path(directory)
        self.max_segment_bytes = max_segment_bytes
        self.snapshot_every = snapshot_every
        self._segments_dir = self.directory / "segments"
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: key -> (segment file name, frame offset, frame length); dict
        #: insertion order is append order, which keys() exposes so the
        #: memory tier can preload most-recent entries first.
        self._index: Dict[StoreKey, Tuple[str, int, int]] = {}
        #: (namespace, options_key) -> keys — the same O(stale)
        #: invalidation index the memory tier keeps.
        self._by_options: Dict[Tuple[str, str], Set[StoreKey]] = {}
        self._closed = False
        self._append_handle = None
        self._append_name = ""
        self._append_offset = 0
        self._appends_since_snapshot = 0
        # -- counters (guarded by self._lock) ---------------------------
        self._hits = 0
        self._misses = 0
        self._appended = 0
        self._invalidations = 0
        self._tombstones = 0
        self._corrupt_frames = 0
        self._bytes_skipped = 0
        self._read_errors = 0
        self._index_rebuilds = 0
        # Recovery mutates lock-guarded state; hold the lock for the
        # whole replay even though __init__ publishes nothing yet (the
        # RLock makes the *_locked helpers' contract literally true).
        with self._lock:
            self._open_locked()

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------
    def _segment_files(self) -> List[Path]:
        return sorted(
            p
            for p in self._segments_dir.glob(
                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"
            )
            if p.is_file()
        )

    def _open_locked(self) -> None:
        segments = self._segment_files()
        positions = self._load_snapshot_locked(segments)
        for path in segments:
            start = positions.get(path.name, 0)
            self._scan_segment_locked(path, start)
        # Append into the newest segment (or a fresh one when none
        # exists or the newest is already over the rotation threshold).
        if segments:
            last = segments[-1]
            size = last.stat().st_size
            if size < self.max_segment_bytes:
                self._append_name = last.name
                self._append_offset = size
                self._append_handle = open(last, "ab")
                return
        self._rotate_locked(next_index=len(segments) + 1)

    def _load_snapshot_locked(self, segments: List[Path]) -> Dict[str, int]:
        """Adopt the index snapshot if it is consistent with the files.

        Returns per-segment scan positions (bytes already covered by the
        adopted snapshot).  Any inconsistency — unreadable JSON, unknown
        version, a referenced segment that is missing, a recorded
        position or entry pointing past the file's actual EOF — discards
        the snapshot entirely and falls back to a full scan (position 0
        everywhere), counted in ``index_rebuilds``.
        """
        path = self.directory / "index.json"
        if not path.exists():
            if segments:
                self._index_rebuilds += 1
            return {}
        try:
            snapshot = json.loads(path.read_text())
            if (
                not isinstance(snapshot, dict)
                or snapshot.get("format_version") != INDEX_FORMAT_VERSION
            ):
                raise ValueError("unknown snapshot layout")
            recorded = snapshot["segments"]
            entries = snapshot["entries"]
            if not isinstance(recorded, dict) or not isinstance(entries, list):
                raise ValueError("malformed snapshot")
            sizes = {p.name: p.stat().st_size for p in segments}
            for name, covered in recorded.items():
                if (
                    not isinstance(covered, int)
                    or name not in sizes
                    or covered < 0
                    or covered > sizes[name]
                ):
                    raise ValueError(
                        f"snapshot covers {covered!r} bytes of segment "
                        f"{name!r} which holds {sizes.get(name)}"
                    )
            index: Dict[StoreKey, Tuple[str, int, int]] = {}
            for entry in entries:
                ns, fp, stages, opts, seg, offset, length = entry
                key = (str(ns), str(fp), int(stages), str(opts))
                if (
                    seg not in recorded
                    or not isinstance(offset, int)
                    or not isinstance(length, int)
                    or offset < 0
                    or length <= 0
                    or offset + length > recorded[seg]
                ):
                    raise ValueError(
                        f"snapshot entry for {key} points outside the "
                        f"covered bytes of segment {seg!r}"
                    )
                index[key] = (str(seg), offset, length)
        except (OSError, ValueError, KeyError, TypeError):
            self._index_rebuilds += 1
            return {}
        for key, location in index.items():
            self._index[key] = location
            self._by_options.setdefault((key[0], key[3]), set()).add(key)
        return {name: int(covered) for name, covered in recorded.items()}

    def _scan_segment_locked(self, path: Path, start: int) -> None:
        """Replay frames from ``start``, skipping damage, applying order.

        Entries insert into the index; tombstones drop every currently
        indexed entry under their (namespace, options_key).  On a
        damaged frame the scanner counts it and resynchronizes on the
        next byte offset whose header magic parses into a frame that
        fully decodes — so one flipped bit costs one frame, not the
        segment's tail (and never a later tombstone).
        """
        try:
            data = path.read_bytes()
        except OSError:
            self._corrupt_frames += 1
            return
        offset = start
        while offset < len(data):
            frame, total = self._parse_frame_at(data, offset)
            if frame is None:
                resume = self._resync(data, offset + 1)
                self._corrupt_frames += 1
                self._bytes_skipped += resume - offset
                offset = resume
                continue
            kind, record = frame
            if kind == KIND_STORE_ENTRY:
                key = (
                    record.namespace,
                    record.fingerprint,
                    record.num_stages,
                    record.options_key,
                )
                self._index[key] = (path.name, offset, total)
                self._by_options.setdefault(
                    (key[0], key[3]), set()
                ).add(key)
            else:
                self._apply_tombstone_locked(
                    record.namespace, record.options_key
                )
                self._tombstones += 1
            offset += total
        return

    @staticmethod
    def _parse_frame_at(data: bytes, offset: int):
        """Fully validate one frame at ``offset``; None when damaged.

        Returns ``((kind, decoded_record), total_length)`` on success,
        ``(None, 0)`` on any damage (truncation, bad magic/version, CRC
        failure, malformed payload, unexpected kind).
        """
        try:
            kind, total = frame_info(data[offset : offset + HEADER_SIZE])
            if offset + total > len(data):
                raise WireFormatError("frame extends past segment EOF")
            frame = data[offset : offset + total]
            if kind == KIND_STORE_ENTRY:
                return (kind, decode_store_entry(frame)), total
            if kind == KIND_STORE_TOMBSTONE:
                return (kind, decode_store_tombstone(frame)), total
            raise WireFormatError(f"unexpected frame kind {kind} in segment")
        except WireFormatError:
            return None, 0

    def _resync(self, data: bytes, start: int) -> int:
        """First offset >= start holding a fully valid frame (or EOF)."""
        offset = data.find(MAGIC, start)
        while offset != -1:
            frame, _ = self._parse_frame_at(data, offset)
            if frame is not None:
                return offset
            offset = data.find(MAGIC, offset + 1)
        return len(data)

    def _apply_tombstone_locked(self, namespace: str, options_key: str) -> None:
        stale = self._by_options.pop((namespace, options_key), None)
        if stale:
            for key in stale:
                self._index.pop(key, None)

    # ------------------------------------------------------------------
    # namespaced store protocol (used via StoreNamespace views)
    # ------------------------------------------------------------------
    def namespace(self, name: str = DEFAULT_NAMESPACE) -> "StoreNamespace":
        """A ScheduleCache-protocol view of one namespace in this store."""
        return StoreNamespace(self, name)

    def get(self, namespace: str, key: CacheKey) -> Optional[CachedSchedule]:
        """Fetch (and re-verify) one entry; damaged entries read as misses."""
        with self._lock:
            if self._closed:
                raise ServiceError("schedule store is closed")
            store_key = (namespace, key[0], key[1], key[2])
            location = self._index.get(store_key)
            if location is None:
                self._misses += 1
                return None
            segment, offset, length = location
            try:
                with open(self._segments_dir / segment, "rb") as handle:
                    handle.seek(offset)
                    frame = handle.read(length)
                record = decode_store_entry(frame)
                if (
                    record.namespace,
                    record.fingerprint,
                    record.num_stages,
                    record.options_key,
                ) != store_key:
                    raise WireFormatError(
                        "store entry decodes to a different key than its "
                        "index slot"
                    )
            except (OSError, WireFormatError):
                # The index pointed at bytes that no longer decode to
                # this key (bit rot, a truncated file, ...): drop the
                # entry and answer a miss — a damaged store degrades to
                # a colder one, never to a wrong or crashing one.
                self._index.pop(store_key, None)
                self._drop_from_options_locked(store_key)
                self._read_errors += 1
                self._misses += 1
                return None
            self._hits += 1
            return CachedSchedule(
                assignment=record.assignment,
                num_stages=record.num_stages,
                method=record.method,
                objective=record.objective,
                status=record.status,
                solve_time=record.solve_time,
                provenance=record.provenance,
            )

    def put(self, namespace: str, key: CacheKey, value: CachedSchedule) -> None:
        """Append one entry and index it (flushed, not fsynced)."""
        record = StoreEntryRecord(
            namespace=namespace,
            fingerprint=key[0],
            num_stages=key[1],
            options_key=key[2],
            assignment=dict(value.assignment),
            method=value.method,
            objective=value.objective,
            status=value.status,
            solve_time=value.solve_time,
            provenance=(
                dict(value.provenance) if value.provenance is not None else None
            ),
        )
        frame = encode_store_entry(record)
        with self._lock:
            if self._closed:
                raise ServiceError("schedule store is closed")
            store_key = (namespace, key[0], key[1], key[2])
            offset = self._append_frame_locked(frame)
            self._index[store_key] = (self._append_name, offset, len(frame))
            self._by_options.setdefault(
                (namespace, key[2]), set()
            ).add(store_key)
            self._appended += 1
            self._maybe_snapshot_locked()

    def contains(self, namespace: str, key: CacheKey) -> bool:
        with self._lock:
            return (
                not self._closed
                and (namespace, key[0], key[1], key[2]) in self._index
            )

    def invalidate_options(self, namespace: str, options_key: str) -> int:
        """Durably retire every ``options_key`` entry in ``namespace``.

        Drops the entries from the index *and* appends a tombstone
        frame, so the invalidation survives a process restart (replay
        applies it in order).  Returns the number of dropped entries; a
        tombstone is appended even when zero are currently indexed, so
        entries hidden behind an unscanned corruption can never outlive
        a promotion.
        """
        frame = encode_store_tombstone(
            StoreTombstoneRecord(namespace=namespace, options_key=options_key)
        )
        with self._lock:
            if self._closed:
                raise ServiceError("schedule store is closed")
            stale = self._by_options.pop((namespace, options_key), set())
            for key in stale:
                self._index.pop(key, None)
            self._append_frame_locked(frame)
            self._tombstones += 1
            self._invalidations += len(stale)
            self._maybe_snapshot_locked()
            return len(stale)

    def keys(self, namespace: str) -> List[CacheKey]:
        """Cache keys of ``namespace`` in append (oldest-first) order."""
        with self._lock:
            return [
                (key[1], key[2], key[3])
                for key in self._index
                if key[0] == namespace
            ]

    def namespaces(self) -> List[str]:
        """Distinct namespaces currently holding entries."""
        with self._lock:
            return sorted({key[0] for key in self._index})

    def count(self, namespace: Optional[str] = None) -> int:
        with self._lock:
            if namespace is None:
                return len(self._index)
            return sum(1 for key in self._index if key[0] == namespace)

    def __len__(self) -> int:
        return self.count()

    def _drop_from_options_locked(self, store_key: StoreKey) -> None:
        keys = self._by_options.get((store_key[0], store_key[3]))
        if keys is not None:
            keys.discard(store_key)
            if not keys:
                del self._by_options[(store_key[0], store_key[3])]

    # ------------------------------------------------------------------
    # appending / rotation / snapshot / lifecycle
    # ------------------------------------------------------------------
    def _append_frame_locked(self, frame: bytes) -> int:
        if self._append_offset + len(frame) > self.max_segment_bytes and (
            self._append_offset > 0
        ):
            next_index = (
                int(self._append_name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])
                + 1
            )
            self._rotate_locked(next_index)
        offset = self._append_offset
        self._append_handle.write(frame)
        # Flush to the OS on every append: a *process* crash then loses
        # nothing, and the torn-tail scan absorbs a machine crash.
        self._append_handle.flush()
        self._append_offset += len(frame)
        self._appends_since_snapshot += 1
        return offset

    def _rotate_locked(self, next_index: int) -> None:
        if self._append_handle is not None:
            self._append_handle.close()
        self._append_name = _segment_name(next_index)
        path = self._segments_dir / self._append_name
        self._append_handle = open(path, "ab")
        self._append_offset = path.stat().st_size

    def _maybe_snapshot_locked(self) -> None:
        if (
            self.snapshot_every
            and self._appends_since_snapshot >= self.snapshot_every
        ):
            self._snapshot_locked()

    def snapshot(self) -> Path:
        """Atomically persist the index; returns the snapshot path.

        fsyncs the active segment first, then writes ``index.json`` via
        the write-then-rename pattern — an interrupted snapshot leaves
        the previous one intact, and a snapshot never claims bytes that
        are not durably on disk.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("schedule store is closed")
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Path:
        self._append_handle.flush()
        os.fsync(self._append_handle.fileno())
        covered = {
            path.name: path.stat().st_size for path in self._segment_files()
        }
        covered[self._append_name] = self._append_offset
        payload = {
            "format_version": INDEX_FORMAT_VERSION,
            "segments": covered,
            "entries": [
                [key[0], key[1], key[2], key[3], seg, offset, length]
                for key, (seg, offset, length) in self._index.items()
            ],
        }
        path = self.directory / "index.json"
        tmp = self.directory / "index.json.tmp"
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        self._appends_since_snapshot = 0
        return path

    def compact(self) -> CompactionStats:
        """Rewrite the live entries into fresh segments; drop the garbage.

        The log is append-only, so superseded entry versions, tombstoned
        groups and the tombstones themselves accumulate as dead bytes
        every reopen still has to scan.  Compaction copies exactly the
        currently indexed frames — in index (append) order — into new
        segments numbered after the current tail, fsyncs them, retargets
        the index, deletes the old segments, and snapshots.  Tombstones
        are not carried over: with every dead group's entries physically
        gone there is nothing left for them to retire.

        Crash-safe at every point in that sequence: before the old
        segments are unlinked, a replay sees both generations and
        converges on the same index (the copies sort after, and therefore
        replay after, the originals — including after any old
        tombstone); once they are gone, the stale snapshot fails its
        consistency check and a full scan of the new segments rebuilds
        the same index.

        Source segments are read whole (same memory bound as the reopen
        scan).  Returns a :class:`CompactionStats`; a garbage-free store
        still rewrites itself, so callers wanting to skip no-op passes
        should gate on ``bytes_reclaimed``/``stats()`` themselves.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("schedule store is closed")
            old_segments = self._segment_files()
            bytes_before = sum(p.stat().st_size for p in old_segments)
            # Freeze the active segment: from here its bytes are input.
            self._append_handle.flush()
            os.fsync(self._append_handle.fileno())
            self._append_handle.close()
            self._append_handle = None
            next_index = 1
            if old_segments:
                next_index = (
                    int(
                        old_segments[-1].name[
                            len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)
                        ]
                    )
                    + 1
                )
            # Index insertion order is append order even across segment
            # boundaries (updates keep their key's original position),
            # so copying in index order preserves recency semantics and
            # the oldest-first contract of keys().
            new_index: Dict[StoreKey, Tuple[str, int, int]] = {}
            new_paths: List[Path] = []
            dropped = 0
            writer = None
            writer_name = ""
            writer_offset = 0
            source_bytes: Dict[str, bytes] = {}
            for key, (seg, offset, length) in self._index.items():
                data = source_bytes.get(seg)
                if data is None:
                    try:
                        data = (self._segments_dir / seg).read_bytes()
                    except OSError:
                        data = b""
                    source_bytes[seg] = data
                frame = data[offset : offset + length]
                try:
                    record = decode_store_entry(frame)
                    if (
                        record.namespace,
                        record.fingerprint,
                        record.num_stages,
                        record.options_key,
                    ) != key:
                        raise WireFormatError(
                            "store entry decodes to a different key than "
                            "its index slot"
                        )
                except WireFormatError:
                    dropped += 1
                    self._read_errors += 1
                    continue
                if writer is None or (
                    writer_offset + len(frame) > self.max_segment_bytes
                    and writer_offset > 0
                ):
                    if writer is not None:
                        writer.flush()
                        os.fsync(writer.fileno())
                        writer.close()
                    writer_name = _segment_name(next_index)
                    next_index += 1
                    path = self._segments_dir / writer_name
                    writer = open(path, "ab")
                    writer_offset = 0
                    new_paths.append(path)
                writer.write(frame)
                new_index[key] = (writer_name, writer_offset, len(frame))
                writer_offset += len(frame)
            if writer is None:
                # No live entries — still need an active tail segment.
                writer_name = _segment_name(next_index)
                path = self._segments_dir / writer_name
                writer = open(path, "ab")
                writer_offset = 0
                new_paths.append(path)
            writer.flush()
            os.fsync(writer.fileno())
            # The new generation is durable: retarget the index and the
            # append tail before the old files go away.
            self._index = new_index
            self._by_options = {}
            for key in new_index:
                self._by_options.setdefault((key[0], key[3]), set()).add(key)
            self._append_handle = writer
            self._append_name = writer_name
            self._append_offset = writer_offset
            for path in old_segments:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - platform dependent
                    pass
            self._snapshot_locked()
            bytes_after = sum(p.stat().st_size for p in new_paths)
            return CompactionStats(
                entries_live=len(new_index),
                entries_dropped=dropped,
                segments_before=len(old_segments),
                segments_after=len(new_paths),
                bytes_before=bytes_before,
                bytes_after=bytes_after,
            )

    def stats(self) -> DiskStoreStats:
        with self._lock:
            return DiskStoreStats(
                entries=len(self._index),
                segments=len(self._segment_files()),
                hits=self._hits,
                misses=self._misses,
                appended=self._appended,
                invalidations=self._invalidations,
                tombstones=self._tombstones,
                corrupt_frames_skipped=self._corrupt_frames,
                bytes_skipped=self._bytes_skipped,
                read_errors=self._read_errors,
                index_rebuilds=self._index_rebuilds,
            )

    def close(self) -> None:
        """Snapshot the index and release the segment handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            try:
                self._snapshot_locked()
            finally:
                self._closed = True
                if self._append_handle is not None:
                    self._append_handle.close()
                    self._append_handle = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "DiskScheduleStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            # Interpreter teardown: file machinery may already be gone.
            pass


class StoreNamespace:
    """One namespace of a :class:`DiskScheduleStore`, cache-protocol shaped.

    Implements exactly the surface :class:`ScheduleCache` exposes
    (``get``/``put``/``__contains__``/``__len__``/``invalidate_options``
    /``stats``/``make_key``), scoped to one namespace — the adapter that
    lets a shared store directory back many shards and methods at once.
    """

    make_key = staticmethod(ScheduleCache.make_key)

    def __init__(self, store: DiskScheduleStore, namespace: str) -> None:
        if not isinstance(namespace, str) or not namespace:
            raise ServiceError(
                f"store namespace must be a non-empty string, got {namespace!r}"
            )
        self.store = store
        self.namespace = namespace

    def get(self, key: CacheKey) -> Optional[CachedSchedule]:
        return self.store.get(self.namespace, key)

    def put(self, key: CacheKey, value: CachedSchedule) -> None:
        self.store.put(self.namespace, key, value)

    def __contains__(self, key: CacheKey) -> bool:
        return self.store.contains(self.namespace, key)

    def __len__(self) -> int:
        return self.store.count(self.namespace)

    def keys(self) -> List[CacheKey]:
        return self.store.keys(self.namespace)

    def invalidate_options(self, options_key: str) -> int:
        return self.store.invalidate_options(self.namespace, str(options_key))

    def snapshot(self) -> Path:
        return self.store.snapshot()

    def stats(self) -> DiskStoreStats:
        return self.store.stats()


class TieredScheduleStore:
    """Read-through/write-through LRU-over-disk schedule store.

    ``memory`` is a :class:`ScheduleCache` (by default a fresh one of
    ``memory_capacity`` entries); ``disk`` is a :class:`StoreNamespace`,
    or ``None`` for a memory-only store whose counters then match the
    bare LRU's.  Every service answers from one of these (its
    ``cache`` attribute).
    """

    make_key = staticmethod(ScheduleCache.make_key)

    def __init__(
        self,
        memory: Optional[ScheduleCache] = None,
        disk: Optional[StoreNamespace] = None,
        memory_capacity: int = 1024,
    ) -> None:
        self.memory = memory if memory is not None else ScheduleCache(memory_capacity)
        self.disk = disk
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._invalidations = 0

    @property
    def capacity(self) -> int:
        return self.memory.capacity

    def get(self, key: CacheKey) -> Optional[CachedSchedule]:
        entry, _tier = self.lookup(key)
        return entry

    def lookup(
        self, key: CacheKey
    ) -> Tuple[Optional[CachedSchedule], Optional[str]]:
        """Like :meth:`get`, but also report which tier answered.

        Returns ``(entry, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"`` or ``None`` (miss) — the label the serving layer's
        ``respect_tier_lookups_total`` series and trace spans carry.
        Hit/miss accounting happens exactly once here (:meth:`get`
        delegates).
        """
        tier: Optional[str] = None
        entry = self.memory.get(key)
        if entry is not None:
            tier = "memory"
        elif self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                tier = "disk"
                # Promote: the next lookup answers from memory.
                self.memory.put(key, entry)
                with self._lock:
                    self._disk_hits += 1
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry, tier

    def put(self, key: CacheKey, value: CachedSchedule) -> None:
        self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def __contains__(self, key: CacheKey) -> bool:
        if key in self.memory:
            return True
        return self.disk is not None and key in self.disk

    def __len__(self) -> int:
        if self.disk is not None:
            return len(self.disk)
        return len(self.memory)

    def invalidate_options(self, options_key: str) -> int:
        """Evict ``options_key`` from every tier; durable when disk-backed.

        Returns the entry count of the deepest tier that held them (the
        durable tier is a superset of the LRU under write-through, so
        its count is the authoritative number of retired schedules).
        """
        dropped_memory = self.memory.invalidate_options(options_key)
        dropped_disk = (
            self.disk.invalidate_options(options_key)
            if self.disk is not None
            else 0
        )
        dropped = max(dropped_memory, dropped_disk)
        with self._lock:
            self._invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop the memory tier and retire every disk entry durably."""
        self.memory.clear()
        if self.disk is not None:
            for options_key in {key[2] for key in self.disk.keys()}:
                self.disk.invalidate_options(options_key)

    def snapshot(self) -> Path:
        """Persist the durable tier's index (write-through means the
        memory tier holds nothing the disk does not already have)."""
        if self.disk is None:
            raise ServiceError(
                "this store has no persistent tier to snapshot (build it "
                "with disk=, or the service with store_dir=)"
            )
        return self.disk.snapshot()

    def restore(self, limit: Optional[int] = None) -> int:
        """Preload the memory tier from disk (most recent entries last).

        Returns how many entries were loaded (at most ``limit``,
        default: the LRU capacity).  Optional — reads fall through to
        disk either way — but a restored tier serves its first requests
        at memory-hit latency instead of disk-hit latency.
        """
        if self.disk is None:
            return 0
        budget = self.memory.capacity if limit is None else limit
        keys = self.disk.keys()[-budget:] if budget else []
        loaded = 0
        for key in keys:
            entry = self.disk.get(key)
            if entry is not None:
                self.memory.put(key, entry)
                loaded += 1
        return loaded

    def stats(self) -> TieredStoreStats:
        memory = self.memory.stats()
        disk = self.disk.stats() if self.disk is not None else None
        with self._lock:
            hits = self._hits
            misses = self._misses
            disk_hits = self._disk_hits
            invalidations = self._invalidations
        return TieredStoreStats(
            hits=hits,
            misses=misses,
            evictions=memory.evictions,
            size=disk.entries if disk is not None else memory.size,
            capacity=memory.capacity,
            invalidations=invalidations,
            disk_hits=disk_hits,
            memory=memory,
            disk=disk,
        )


__all__ = [
    "DEFAULT_NAMESPACE",
    "DiskScheduleStore",
    "DiskStoreStats",
    "StoreKey",
    "StoreNamespace",
    "TieredScheduleStore",
    "TieredStoreStats",
]
