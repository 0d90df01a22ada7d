"""Serving-stack observability: registry/stats equality, traces, spans.

Three contracts under test:

* **No parallel bookkeeping** — every ``*Stats`` field is a view over
  the shared metrics registry, so under a concurrent hammer (and for
  the front-tier degraded/listener-error paths) registry totals equal
  the legacy stats totals exactly, each event counted once.
* **Exposition round-trips** — the Prometheus text rendering and the
  JSON export carry the same counter values as the stats views.
* **Request traces span every layer and both processes** — one request
  through a sharded, disk-backed, worker-decoding tier yields a single
  span tree with admission, shard routing, tier-labeled lookup, the
  worker-side decode sub-span (shipped back in the wire frame) and the
  publish; a crashed worker shows up as a second ``worker.attempt``.
"""

import os
import threading
import time

from repro.graphs.sampler import sample_synthetic_dag
from repro.obs import (
    InMemorySpanExporter,
    Telemetry,
    build_trace_tree,
    parse_prometheus_text,
)
from repro.rl.respect import RespectScheduler
from repro.scheduling.heuristics import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.service import SchedulingService

NUM_STAGES = 3


class FakeScheduler:
    method_name = "fake"

    def _solve(self, graph, num_stages):
        assignment = {
            name: min(i * num_stages // graph.num_nodes, num_stages - 1)
            for i, name in enumerate(graph.node_names)
        }
        return ScheduleResult(
            Schedule(graph, num_stages, assignment), 0.001, self.method_name
        )

    def schedule(self, graph, num_stages):
        return self._solve(graph, num_stages)

    def schedule_batch(self, graphs, stage_counts):
        return [
            self._solve(graph, stages)
            for graph, stages in zip(graphs, stage_counts)
        ]


def make_graphs(count, seed_base=0):
    return [
        sample_synthetic_dag(num_nodes=10, degree=3, seed=seed_base + i)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# registry == stats (the double-counting audit)
# ----------------------------------------------------------------------
class TestRegistryStatsEquality:
    def test_concurrent_hammer_registry_equals_stats(self):
        telemetry = Telemetry()
        graphs = make_graphs(12)
        with SchedulingService(
            FakeScheduler(), telemetry=telemetry, batch_window_s=0.001
        ) as service:
            def hammer(offset):
                for i in range(30):
                    graph = graphs[(i + offset) % len(graphs)]
                    service.submit(graph, NUM_STAGES).result(timeout=10)

            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
            registry = telemetry.registry
            assert stats.requests == 180
            assert (
                registry.counter_total("respect_requests_total")
                == stats.requests
            )
            assert (
                registry.counter_total("respect_cache_hits_total")
                == stats.cache_hits
            )
            assert (
                registry.counter_total("respect_coalesced_total")
                == stats.coalesced
            )
            assert (
                registry.counter_total("respect_scheduled_graphs_total")
                == stats.scheduled_graphs
            )
            # Every request is exactly one of: hit, coalesced, solved.
            assert (
                stats.cache_hits + stats.coalesced + stats.scheduled_graphs
                == stats.requests
            )
            # Tier lookups cover every non-coalesced request.
            assert (
                registry.counter_total("respect_tier_lookups_total")
                == stats.requests - stats.coalesced
            )
            # The latency histogram saw every served request.
            assert (
                registry.histogram_merged(
                    "respect_request_latency_seconds"
                ).count
                == stats.requests
            )

    def test_sharded_hammer_registry_equals_stats(self):
        telemetry = Telemetry()
        graphs = make_graphs(10, seed_base=100)
        with SchedulingService(
            FakeScheduler(),
            num_shards=3,
            telemetry=telemetry,
            batch_window_s=0.001,
        ) as tier:
            def hammer(offset):
                for i in range(20):
                    graph = graphs[(i + offset) % len(graphs)]
                    tier.submit(graph, NUM_STAGES).result(timeout=10)

            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(5)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = tier.stats()
            registry = telemetry.registry
            assert stats.requests == 100
            # Tier total = sum over shard series (+ front tier, 0 here).
            assert (
                registry.counter_total("respect_requests_total")
                == stats.requests
            )
            for i in range(3):
                assert (
                    registry.counter_total(
                        "respect_requests_total", shard=str(i)
                    )
                    == stats.per_shard[i].requests
                )
            assert (
                registry.histogram_merged(
                    "respect_request_latency_seconds"
                ).count
                == stats.requests
            )

    def test_degraded_serves_and_listener_errors_counted_once(self):
        telemetry = Telemetry()
        graphs = make_graphs(4, seed_base=200)
        release = threading.Event()

        class Gated(FakeScheduler):
            def schedule(self, graph, num_stages):
                release.wait(timeout=10)
                return super().schedule(graph, num_stages)

            def schedule_batch(self, graphs, stage_counts):
                release.wait(timeout=10)
                return super().schedule_batch(graphs, stage_counts)

        def bad_listener(graph, num_stages, result):
            raise RuntimeError("listener boom")

        with SchedulingService(
            Gated(),
            num_shards=1,
            max_queue_depth=1,
            admission="degrade",
            batch_window_s=0.0,
            telemetry=telemetry,
        ) as tier:
            tier.add_serve_listener(bad_listener)
            first = tier.submit(graphs[0], NUM_STAGES)  # occupies the gate
            degraded = tier.submit(graphs[1], NUM_STAGES)
            assert degraded.result(timeout=5).extras["degraded"] is True
            release.set()
            first.result(timeout=10)
            stats = tier.stats()
            registry = telemetry.registry
            assert stats.degraded == 1
            # Exactly once, under the front tier — never in a shard.
            assert (
                registry.counter_total(
                    "respect_admission_outcomes_total", outcome="degraded"
                )
                == 1
            )
            assert (
                registry.counter_total(
                    "respect_requests_total", tier="front"
                )
                == 1
            )
            # requests view = shard serves + degraded front serves;
            # the registry-wide sum agrees (no double counting).
            assert (
                registry.counter_total("respect_requests_total")
                == stats.requests
            )
            # Both serves tripped the listener: one error in the shard
            # path, one in the front (degraded) path — each exactly once.
            assert stats.listener_errors == 2
            assert (
                registry.counter_total("respect_listener_errors_total")
                == stats.listener_errors
            )


# ----------------------------------------------------------------------
# exposition round-trip
# ----------------------------------------------------------------------
class TestExpositionRoundTrip:
    def test_prometheus_and_json_match_stats_views(self):
        telemetry = Telemetry()
        graphs = make_graphs(6, seed_base=300)
        with SchedulingService(
            FakeScheduler(), telemetry=telemetry
        ) as service:
            for graph in graphs + graphs:  # second pass: cache hits
                service.submit(graph, NUM_STAGES).result(timeout=10)
            stats = service.stats()
            parsed = parse_prometheus_text(
                telemetry.registry.render_prometheus()
            )
            assert (
                sum(parsed["respect_requests_total"].values())
                == stats.requests
            )
            assert (
                sum(parsed["respect_cache_hits_total"].values())
                == stats.cache_hits
            )
            assert (
                sum(
                    parsed["respect_request_latency_seconds_count"].values()
                )
                == stats.requests
            )
            payload = telemetry.registry.to_json()
            json_requests = sum(
                row["value"]
                for row in payload["metrics"]
                if row["name"] == "respect_requests_total"
            )
            assert json_requests == stats.requests


# ----------------------------------------------------------------------
# traces across every layer (and across processes)
# ----------------------------------------------------------------------
def span_names(tree):
    names = [tree["name"]]
    for child in tree["children"]:
        names.extend(span_names(child))
    return names


def find_spans(tree, name):
    found = [tree] if tree["name"] == name else []
    for child in tree["children"]:
        found.extend(find_spans(child, name))
    return found


class TestRequestTraces:
    def test_single_service_trace_has_lookup_solve_publish(self):
        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter)
        graph = make_graphs(1, seed_base=400)[0]
        with SchedulingService(
            FakeScheduler(), telemetry=telemetry
        ) as service:
            service.submit(graph, NUM_STAGES).result(timeout=10)
            deadline = time.monotonic() + 5.0
            while (
                len(exporter.records) < 4 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        (tree,) = build_trace_tree(exporter.records)
        assert tree["name"] == "request"
        names = span_names(tree)
        for expected in ("lookup", "solve", "publish"):
            assert expected in names, names
        (lookup,) = find_spans(tree, "lookup")
        assert lookup["attrs"]["tier"] == "miss"

    def test_cache_hit_trace_is_memory_tier(self):
        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter)
        graph = make_graphs(1, seed_base=401)[0]
        with SchedulingService(
            FakeScheduler(), telemetry=telemetry
        ) as service:
            service.submit(graph, NUM_STAGES).result(timeout=10)
            exporter.clear()
            service.submit(graph, NUM_STAGES).result(timeout=10)
        (tree,) = build_trace_tree(exporter.records)
        (lookup,) = find_spans(tree, "lookup")
        assert lookup["attrs"]["tier"] == "memory"

    def test_unsampled_requests_emit_nothing(self):
        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter, sample_rate=0.0)
        graph = make_graphs(1, seed_base=402)[0]
        with SchedulingService(
            FakeScheduler(), telemetry=telemetry
        ) as service:
            service.submit(graph, NUM_STAGES).result(timeout=10)
        assert exporter.records == []

    def test_disk_tier_label_after_store_reopen(self, tmp_path):
        store_dir = str(tmp_path / "store")
        graph = make_graphs(1, seed_base=403)[0]
        with SchedulingService(
            ListScheduler(), store_dir=store_dir
        ) as service:
            service.submit(graph, NUM_STAGES).result(timeout=10)
            service.snapshot()
        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter)
        with SchedulingService(
            ListScheduler(), store_dir=store_dir, telemetry=telemetry
        ) as service:
            result = service.submit(graph, NUM_STAGES).result(timeout=10)
            assert result.extras["cache_hit"] is True
        (tree,) = build_trace_tree(exporter.records)
        (lookup,) = find_spans(tree, "lookup")
        assert lookup["attrs"]["tier"] == "disk"
        assert (
            telemetry.registry.counter_total(
                "respect_tier_lookups_total", tier="disk"
            )
            == 1
        )


class TestCrossProcessTraces:
    """End-to-end acceptance: spans cross the decode-worker boundary."""

    def test_sharded_worker_request_trace_is_complete(self, tmp_path):
        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter)
        graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=7)
        with SchedulingService(
            RespectScheduler(),
            num_shards=2,
            decode_workers=2,
            store_dir=str(tmp_path / "store"),
            telemetry=telemetry,
        ) as tier:
            tier.submit(graph, 4).result(timeout=120)
            # The root span ends via the future's done callback and the
            # mirrored publish records trail it; wait for the export.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                trees = build_trace_tree(exporter.records)
                if trees and "worker.decode" in span_names(trees[0]):
                    break
                time.sleep(0.05)
        (tree,) = build_trace_tree(exporter.records)
        assert tree["name"] == "request"
        names = span_names(tree)
        for expected in (
            "admission",
            "route",
            "lookup",
            "solve",
            "decode.workers",
            "worker.attempt",
            "worker.decode",
            "postprocess",
            "publish",
        ):
            assert expected in names, names
        (admission,) = find_spans(tree, "admission")
        assert admission["attrs"]["outcome"] == "admitted"
        (route,) = find_spans(tree, "route")
        assert route["attrs"]["shard"] == tier.shard_index(graph)
        (lookup,) = find_spans(tree, "lookup")
        assert lookup["attrs"]["tier"] == "miss"
        (decode,) = find_spans(tree, "worker.decode")
        # The worker-side span really came from the worker process.
        assert decode["attrs"]["pid"] != os.getpid()
        # One trace: every span shares the root's trace id.
        trace_ids = {r["trace_id"] for r in exporter.records}
        assert trace_ids == {tree["trace_id"]}

    def test_worker_crash_produces_second_attempt_span(self):
        from repro.service import wire
        from repro.service.workers import (
            DecodeWorkerPool,
            WorkerDecodeScheduler,
        )

        exporter = InMemorySpanExporter()
        telemetry = Telemetry.with_tracing(exporter)
        respect = RespectScheduler()
        warm = sample_synthetic_dag(num_nodes=12, degree=3, seed=8)
        # A wide batch keeps the worker busy long enough to be killed
        # mid-decode deterministically.
        big = [
            sample_synthetic_dag(num_nodes=120, degree=3, seed=500 + s)
            for s in range(16)
        ]
        crashed = None
        with DecodeWorkerPool(1) as pool:
            epoch = pool.publish_scheduler(respect)
            wrapped = WorkerDecodeScheduler(respect, pool, epoch)
            wrapped.schedule(warm, 4)  # warm: weights epoch loaded
            root = telemetry.start_trace("request")
            for _ in range(5):  # retry if the kill misses the window
                roundtrip = root.child("decode.workers", batch_size=len(big))
                payload = wire.encode_decode_request(
                    big,
                    options_key=wrapped.options_fingerprint(),
                    trace={
                        "trace_id": roundtrip.trace_id,
                        "span_id": roundtrip.span_id,
                    },
                )

                def submit():
                    pool.submit(payload, epoch=epoch, span=roundtrip)

                thread = threading.Thread(target=submit)
                thread.start()
                deadline = time.monotonic() + 5.0
                while (
                    not pool.stats().pending
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                pool._workers[0].process.terminate()  # mid-flight kill
                thread.join(timeout=60)
                assert not thread.is_alive()
                roundtrip.end()
                crashed = [
                    r
                    for r in exporter.records
                    if r["name"] == "worker.attempt"
                    and r["status"] == "crashed"
                ]
                if crashed:
                    break
            root.end()
        assert crashed, "kill never landed mid-decode in 5 rounds"
        # The crashed dispatch was attempt 1; the resubmission to the
        # respawned worker shows up as a sibling attempt 2 that succeeds.
        (first,) = crashed
        assert first["attrs"]["attempt"] == 1
        retries = [
            r
            for r in exporter.records
            if r["name"] == "worker.attempt"
            and r["parent_id"] == first["parent_id"]
            and r["attrs"]["attempt"] == 2
        ]
        (retry,) = retries
        assert retry["status"] == "ok"
        assert pool.stats().respawns >= 1
