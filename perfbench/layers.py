"""Per-layer replay: time each layer's public call over a workload's inputs.

The traced run records one span per call from the benchmark's side --
the program itself is not instrumented.  Each layer is replayed in its
own host-clock chunk, so the adjustment of ``hostspeed.py`` applies to
every layer.  A metric is the adjusted mean per call; a layer that is
not on a workload's request path reads 0.

``rl.decode_ms`` and ``rl.decode_batch_ms`` are *self* times: the
``decode_orders`` call embeds the graphs itself, so the measured
``embedding.encode_ms`` is subtracted.  ``workers.overhead_ms`` is the
worker-pool ``decode_orders(batch)`` minus the in-process one on the
same batch, run back to back: wire encoding, the pipe and the
worker-side graph decode.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro import (
    build_encoder_queue,
    build_model,
    pack_sequence,
    postprocess_schedule,
    quantize_graph,
)
from repro.graphs import graph_fingerprint
from repro.models.zoo import FIG4_MODELS
from repro.service import (
    CachedSchedule,
    DiskScheduleStore,
    ScheduleCache,
    scheduler_options_key,
    wire,
)
from repro.service.store import DEFAULT_NAMESPACE

from workloads import HOT_LRU, STAGE_CHOICES

#: Requests of a serving workload replayed per layer.
REPLAY_REQUESTS = 64
#: Times each batch is decoded both ways for ``workers.overhead_ms``.
WORKER_PAIRS = 2
#: Times the populated store is reopened for ``service.store_open_ms``.
STORE_OPENS = 3

_SCALE = {"ms": 1e3, "us": 1e6}


class SpanRecorder:
    """Spans ``(name, start, end)`` kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    def timed(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.record(name, start, time.perf_counter())
        return out


class LayerReplay:
    """Replays layer calls in host-clock chunks; collects adjusted means."""

    def __init__(self, clock, recorder: SpanRecorder) -> None:
        self.clock = clock
        self.recorder = recorder
        self.seconds: Dict[str, float] = {}

    def measure(self, layer: str, fn: Callable, calls: Sequence[tuple]) -> list:
        """Time ``fn(*args)`` per args tuple; keep the adjusted mean."""
        first = len(self.recorder.spans)
        outs, _raw, factor = self.clock.chunk(
            lambda: [self.recorder.timed(layer, fn, *args) for args in calls]
        )
        durations = [end - start for _, start, end in self.recorder.spans[first:]]
        self.seconds[layer] = statistics.fmean(durations) * factor
        return outs

    def measure_extra(self, layer: str, fn: Callable, baseline: Callable, calls) -> None:
        """Keep the adjusted median of ``fn`` minus ``baseline`` per args tuple.

        The two run back to back on the same args in one chunk, so a
        change of host speed between chunks does not enter the difference.
        """
        def differences():
            out = []
            for args in calls:
                start = time.perf_counter()
                baseline(*args)
                middle = time.perf_counter()
                fn(*args)
                out.append(time.perf_counter() - 2 * middle + start)
            return out

        extra, _raw, factor = self.clock.chunk(differences)
        self.seconds[layer] = statistics.median(extra) * factor


def _zoo(replay: LayerReplay, workload) -> float:
    scheduler = workload.scheduler
    floats = replay.measure("models.build", build_model, [(m,) for m in FIG4_MODELS])
    graphs = replay.measure("tpu.quantize", quantize_graph, [(g,) for g in floats])
    replay.measure(
        "embedding.encode", build_encoder_queue,
        [(g, scheduler.embedding_config) for g in graphs],
    )
    orders = replay.measure(
        "rl.decode", lambda g: scheduler.decode_orders([g])[0], [(g,) for g in graphs]
    )
    jobs = [(g, o, k) for g, o in zip(graphs, orders) for k in STAGE_CHOICES]
    raws = replay.measure(
        "scheduling.pack",
        lambda g, o, k: pack_sequence(g, o, k, budget_slack=scheduler.budget_slack),
        jobs,
    )
    replay.measure(
        "scheduling.postprocess", postprocess_schedule,
        [(raw, scheduler.enforce_siblings) for raw in raws],
    )
    s = replay.seconds
    per_request = (
        s["models.build"] + s["tpu.quantize"] + s["rl.decode"]
        + len(STAGE_CHOICES) * (s["scheduling.pack"] + s["scheduling.postprocess"])
    )
    s["rl.decode"] -= s["embedding.encode"]
    return per_request


def _serve_miss(replay: LayerReplay, workload, handle, answers, batch: int) -> float:
    scheduler = workload.scheduler
    sample = [a for a in answers if a[2] is not None][:REPLAY_REQUESTS]
    graphs = [g for g, _, _ in sample]
    options = scheduler_options_key(scheduler)
    fingerprints = replay.measure("graphs.fingerprint", graph_fingerprint, [(g,) for g in graphs])
    keys = [ScheduleCache.make_key(fp, k, options) for fp, (_, k, _) in zip(fingerprints, sample)]
    cache = ScheduleCache(len(keys))
    replay.measure("service.cache_get", cache.get, [(key,) for key in keys])
    store_dir = workload.workdir / "replay-store"
    with DiskScheduleStore(store_dir) as store:
        replay.measure(
            "service.store_get", store.get, [(DEFAULT_NAMESPACE, key) for key in keys]
        )
        entries = [
            CachedSchedule(
                assignment=dict(r.schedule.assignment), num_stages=k,
                method=r.method, objective=r.objective, status=r.status,
                solve_time=r.solve_time,
            )
            for _, k, r in sample
        ]
        replay.measure(
            "service.store_put", store.put,
            [(DEFAULT_NAMESPACE, key, e) for key, e in zip(keys, entries)],
        )
    shutil.rmtree(store_dir, ignore_errors=True)
    replay.measure(
        "embedding.encode", build_encoder_queue,
        [(g, scheduler.embedding_config) for g in graphs],
    )
    batches = [graphs[i : i + batch] for i in range(0, len(graphs), batch)]
    orders = replay.measure("rl.decode_batch", scheduler.decode_orders, [(b,) for b in batches])
    in_process = replay.seconds["rl.decode_batch"] / batch
    orders = [o for group in orders for o in group]
    raws = replay.measure(
        "scheduling.pack",
        lambda g, o, k: pack_sequence(g, o, k, budget_slack=scheduler.budget_slack),
        [(g, o, k) for (g, k, _), o in zip(sample, orders)],
    )
    replay.measure(
        "scheduling.postprocess", postprocess_schedule,
        [(raw, scheduler.enforce_siblings) for raw in raws],
    )
    s = replay.seconds
    decode_per_request = in_process
    if workload.name == "serve_workers":
        payloads = replay.measure(
            "wire.request_encode",
            lambda b: wire.encode_decode_request(b, options_key=options),
            [(b,) for b in batches],
        )
        replay.measure("wire.request_decode", wire.decode_decode_request, [(p,) for p in payloads])
        replay.measure_extra(
            "workers.overhead", handle.scheduler.decode_orders, scheduler.decode_orders,
            [(b,) for b in batches] * WORKER_PAIRS,
        )
        decode_per_request += s["workers.overhead"] / batch
    s["rl.decode_batch"] = in_process - s["embedding.encode"]
    return (
        s["graphs.fingerprint"] + s["service.cache_get"] + s["service.store_get"]
        + decode_per_request + s["scheduling.pack"] + s["scheduling.postprocess"]
        + s["service.store_put"]
    )


def _serve_hot(replay: LayerReplay, workload, answers, disk_share: float) -> float:
    options = scheduler_options_key(workload.scheduler)
    sample = answers[:REPLAY_REQUESTS]
    fingerprints = replay.measure(
        "graphs.fingerprint", graph_fingerprint, [(g,) for g, _, _ in sample]
    )
    keys = [ScheduleCache.make_key(fp, k, options) for fp, (_, k, _) in zip(fingerprints, sample)]
    copy_dir = workload.workdir / "replay-store"
    shutil.copytree(workload.hot_dir, copy_dir)
    replay.measure(
        "service.store_open",
        lambda: DiskScheduleStore(copy_dir).close(),
        [()] * STORE_OPENS,
    )
    with DiskScheduleStore(copy_dir) as store:
        entries = replay.measure(
            "service.store_get", store.get, [(DEFAULT_NAMESPACE, key) for key in keys]
        )
    shutil.rmtree(copy_dir, ignore_errors=True)
    cache = ScheduleCache(HOT_LRU)
    for key, entry in zip(keys, entries):
        cache.put(key, entry)
    replay.measure("service.cache_get", cache.get, [(key,) for key in keys])
    s = replay.seconds
    return (
        s["graphs.fingerprint"] + s["service.cache_get"]
        + disk_share * s["service.store_get"]
    )


def replay_layers(
    workload, handle, clock, recorder, answers, counts
) -> Tuple[Dict[str, float], float]:
    """Adjusted seconds per call of each layer, and the per-request layer sum."""
    replay = LayerReplay(clock, recorder)
    if workload.name == "compile_zoo":
        per_request = _zoo(replay, workload)
    elif workload.name == "serve_hot":
        tiers = [counts[f"service.tier_{t}"] for t in ("memory", "disk", "miss")]
        disk_share = counts["service.tier_disk"] / max(1, sum(tiers))
        per_request = _serve_hot(replay, workload, answers, disk_share)
    else:
        batch = max(1, round(counts.get("service.mean_batch_size", 1.0)))
        per_request = _serve_miss(replay, workload, handle, answers, batch)
    return replay.seconds, per_request


def layer_metrics(
    seconds: Dict[str, float], counts: Dict[str, float], units: Dict[str, str]
) -> Dict[str, float]:
    """Each per-layer metric in its unit.

    A timing metric ``<layer>_<unit>`` reads the layer's seconds; any
    other metric is a count of the same name.  Absent layers read 0.
    """
    metrics = {}
    for name, unit in units.items():
        if unit in _SCALE:
            metrics[name] = seconds.get(name.rsplit("_", 1)[0], 0.0) * _SCALE[unit]
        else:
            metrics[name] = float(counts.get(name, 0))
    return metrics
