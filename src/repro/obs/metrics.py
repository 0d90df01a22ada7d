"""Thread-safe metrics registry: counters, gauges, streaming histograms.

The registry is the single source of truth for every counter the serving
stack maintains — the ``*Stats`` dataclasses in ``repro.service`` are
point-in-time *views* over these instruments, never parallel bookkeeping,
so a stats snapshot and a scraped exposition can't disagree.

Instruments are identified by ``(name, labels)``; requesting the same
pair twice returns the same instrument, so independent layers (e.g. a
shard and its parent tier) can safely resolve handles to shared series.
Exposition comes in two formats:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text format
  (``# TYPE`` headers, ``{label="v"}`` series, ``_bucket``/``_sum``/
  ``_count`` histogram expansion with cumulative ``le`` buckets);
* :meth:`MetricsRegistry.to_json` — a JSON-native dict mirroring the
  same numbers for machine consumption.

Histograms use fixed upper bounds with exact per-bucket counts (nothing
is sampled or decayed).  Percentiles interpolate linearly inside the
owning bucket and clamp to the observed ``[min, max]``, so a
single-sample histogram reports that exact sample for every quantile.
Snapshots of histograms with identical bounds merge losslessly —
this is what lets ``ServiceStats`` pool per-shard latency
distributions without shipping raw sample windows around
(percentiles don't compose; bucket counts do).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
]

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram bounds (seconds): log-spaced from 10 µs to 30 s.
#: Wide enough for cache hits (~µs) through cold ILP solves (~s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(base * 10.0 ** exp, 12)
    for exp in range(-5, 1)
    for base in (1.0, 2.5, 5.0)
) + (10.0, 30.0)


def _freeze_labels(labels: Mapping[str, str]) -> LabelSet:
    frozen = []
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not key:
            raise ValueError(f"label names must be non-empty strings: {key!r}")
        frozen.append((key, str(value)))
    return tuple(frozen)


class Counter:
    """Monotonic counter. ``inc`` never accepts negative amounts."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depths, pool sizes)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass
class HistogramSnapshot:
    """Immutable histogram state; supports lossless same-bucket merging."""

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]  # len(bounds) + 1; last bucket is +Inf
    count: int
    sum: float
    min: float  # +inf when empty
    max: float  # -inf when empty

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(
                a + b for a, b in zip(self.counts, other.counts)
            ),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @staticmethod
    def merged(
        snapshots: Iterable["HistogramSnapshot"],
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> "HistogramSnapshot":
        """Merge any number of snapshots (empty iterable -> empty hist)."""
        result = HistogramSnapshot(
            bounds=bounds,
            counts=tuple(0 for _ in range(len(bounds) + 1)),
            count=0,
            sum=0.0,
            min=math.inf,
            max=-math.inf,
        )
        for snap in snapshots:
            result = result.merge(snap)
        return result

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact-count bucket percentile, interpolated inside the bucket.

        Raises ``ValueError`` on an empty histogram, mirroring
        :func:`repro.utils.stats.percentile` on an empty window.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100]: {q}")
        if self.count == 0:
            raise ValueError("percentile of empty histogram")
        if self.count == 1 or self.min == self.max:
            return self.min
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lo = self.bounds[index - 1] if index > 0 else 0.0
            hi = (
                self.bounds[index]
                if index < len(self.bounds)
                else self.max
            )
            if cumulative + bucket_count >= target:
                # Linear interpolation within the owning bucket.
                within = (target - cumulative) / bucket_count
                value = lo + (hi - lo) * within
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max


class Histogram:
    """Streaming fixed-bucket histogram with exact per-bucket counts."""

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        sorted_bounds = tuple(float(b) for b in bounds)
        if not sorted_bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(sorted_bounds) != sorted(set(sorted_bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = sorted_bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(sorted_bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _bucket_index(self, value: float) -> int:
        # A value exactly on a bound counts in that bucket (le semantics).
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                bounds=self.bounds,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                min=self._min,
                max=self._max,
            )

    def percentile(self, q: float) -> float:
        return self.snapshot().percentile(q)


_Key = Tuple[str, str, LabelSet]  # (kind, name, labels)


class MetricsRegistry:
    """Get-or-create instrument store with snapshot/exposition support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[_Key, object] = {}
        self._help: Dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: Mapping[str, str],
             factory):
        frozen = _freeze_labels(labels)
        key = (kind, name, frozen)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                for other_kind, other_name, _ in self._instruments:
                    if other_name == name and other_kind != kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{other_kind}, not {kind}"
                        )
                instrument = factory(name, frozen)
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        if help:
            self._help.setdefault(name, help)
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        if help:
            self._help.setdefault(name, help)
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        if help:
            self._help.setdefault(name, help)
        return self._get(
            "histogram",
            name,
            labels,
            lambda n, frozen: Histogram(n, frozen, buckets),
        )

    # -- aggregation helpers -------------------------------------------

    def counter_total(self, name: str, **labels: str) -> int:
        """Sum of a counter across every label set matching ``labels``."""
        want = set(_freeze_labels(labels))
        total = 0
        with self._lock:
            instruments = list(self._instruments.items())
        for (kind, inst_name, inst_labels), instrument in instruments:
            if kind == "counter" and inst_name == name:
                if want <= set(inst_labels):
                    total += instrument.value
        return total

    def histogram_merged(self, name: str, **labels: str) -> HistogramSnapshot:
        """Merged snapshot of a histogram across matching label sets."""
        want = set(_freeze_labels(labels))
        snaps = []
        bounds = DEFAULT_LATENCY_BUCKETS
        with self._lock:
            instruments = list(self._instruments.items())
        for (kind, inst_name, inst_labels), instrument in instruments:
            if kind == "histogram" and inst_name == name:
                if want <= set(inst_labels):
                    snaps.append(instrument.snapshot())
                    bounds = instrument.bounds
        return HistogramSnapshot.merged(snaps, bounds=bounds)

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Point-in-time state of every instrument, as plain dicts."""
        with self._lock:
            instruments = sorted(
                self._instruments.items(),
                key=lambda item: (item[0][1], item[0][0], item[0][2]),
            )
        rows = []
        for (kind, name, labels), instrument in instruments:
            row = {"kind": kind, "name": name, "labels": dict(labels)}
            if kind in ("counter", "gauge"):
                row["value"] = instrument.value
            else:
                snap = instrument.snapshot()
                row.update(
                    count=snap.count,
                    sum=snap.sum,
                    min=None if snap.count == 0 else snap.min,
                    max=None if snap.count == 0 else snap.max,
                    buckets=[
                        {"le": le, "count": c}
                        for le, c in zip(
                            list(snap.bounds) + [math.inf], snap.counts
                        )
                    ],
                )
            rows.append(row)
        return rows

    def to_json(self) -> dict:
        """JSON-native export mirroring the Prometheus exposition."""
        metrics = []
        for row in self.snapshot():
            clean = dict(row)
            if "buckets" in clean:
                clean["buckets"] = [
                    {
                        "le": "+Inf" if math.isinf(b["le"]) else b["le"],
                        "count": b["count"],
                    }
                    for b in clean["buckets"]
                ]
            metrics.append(clean)
        return {"metrics": metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        by_name: Dict[Tuple[str, str], List[dict]] = {}
        for row in self.snapshot():
            by_name.setdefault((row["name"], row["kind"]), []).append(row)
        lines: List[str] = []
        for (name, kind), rows in sorted(by_name.items()):
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for row in rows:
                labels = row["labels"]
                if kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_render_value(row['value'])}"
                    )
                    continue
                cumulative = 0
                for bucket in row["buckets"]:
                    cumulative += bucket["count"]
                    le = (
                        "+Inf"
                        if math.isinf(bucket["le"])
                        else _render_value(bucket["le"])
                    )
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_render_value(row['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {row['count']}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse Prometheus text exposition back into ``{series: value}``.

    Series keys look like ``name{a="b"}`` (label-sorted).  Used by the CI
    smoke step and the round-trip tests to prove the exposition both
    parses and carries the same numbers as the stats views.  Raises
    ``ValueError`` on any malformed sample line.
    """
    out: Dict[str, Dict[str, float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # name{labels} value  |  name value
        if "}" in line:
            series, _, value_text = line.rpartition(" ")
            name, _, label_text = series.partition("{")
            if not label_text.endswith("}"):
                raise ValueError(f"malformed sample line: {raw!r}")
            labels = {}
            body = label_text[:-1]
            if body:
                for part in _split_labels(body):
                    key, _, val = part.partition("=")
                    if not val.startswith('"') or not val.endswith('"'):
                        raise ValueError(f"malformed label in: {raw!r}")
                    labels[key] = (
                        val[1:-1]
                        .replace("\\n", "\n")
                        .replace('\\"', '"')
                        .replace("\\\\", "\\")
                    )
        else:
            name, _, value_text = line.rpartition(" ")
            labels = {}
        # A metric name never carries brace/quote characters — their
        # presence means an unclosed label block slipped through.
        if not name or any(c in name for c in '{}"'):
            raise ValueError(f"malformed sample line: {raw!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(f"non-numeric sample in: {raw!r}") from exc
        key = name + _render_labels(labels)
        out.setdefault(name, {})[key] = value
    return out


def _split_labels(body: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts = []
    current = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts


def dumps_json(registry: MetricsRegistry) -> str:
    """Compact JSON string of :meth:`MetricsRegistry.to_json`."""
    return json.dumps(registry.to_json(), sort_keys=True)
