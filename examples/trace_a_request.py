#!/usr/bin/env python3
"""Trace one request end to end through a sharded scheduling service.

The observability layer (:mod:`repro.obs`) threads one ``Telemetry``
facade through every serving constructor.  This demo builds the full
production shape — a two-shard :class:`~repro.service.SchedulingService`
with a disk-backed schedule store and decode worker *processes* — and
submits a single request with tracing on, then prints:

1. the request's **span tree**: admission decision, shard routing, tier
   lookup (memory/disk/miss), batched solve, the decode round-trip with
   the worker-side sub-span shipped home inside the wire response frame
   (note its ``pid`` differs from this process), and the publish;
2. a second request for the same graph, now a **memory-tier cache hit**
   (a two-span trace: lookup + nothing else to do);
3. the **Prometheus text exposition** of the same registry the
   ``stats()`` views read from — one bookkeeping, two renderings.

Usage::

    PYTHONPATH=src python examples/trace_a_request.py
"""

from __future__ import annotations

import os
import tempfile

from repro.graphs.sampler import sample_synthetic_dag
from repro.obs import InMemorySpanExporter, Telemetry, format_span_tree
from repro.rl.respect import RespectScheduler
from repro.service import SchedulingService

NUM_STAGES = 4


def main() -> None:
    exporter = InMemorySpanExporter()
    telemetry = Telemetry.with_tracing(exporter)  # sample_rate=1.0
    graph = sample_synthetic_dag(num_nodes=16, degree=3, seed=11)

    with tempfile.TemporaryDirectory() as tmp:
        with SchedulingService(
            RespectScheduler(),
            num_shards=2,
            decode_workers=2,
            store_dir=os.path.join(tmp, "store"),
            telemetry=telemetry,
        ) as service:
            print(f"serving pid {os.getpid()}; decode workers are separate")
            print()

            result = service.schedule(graph, NUM_STAGES)
            print(
                f"request 1 (miss): objective={result.objective:.4f} "
                f"method={result.method}"
            )
            # The trace finishes asynchronously with the future; the
            # worker sub-span arrived inside the decode response frame.
            trace_id = exporter.records[-1]["trace_id"]
            print(format_span_tree(exporter.trace(trace_id)))
            print()

            exporter.clear()
            result = service.schedule(graph, NUM_STAGES)
            assert result.extras["cache_hit"] is True
            print("request 2 (memory-tier hit):")
            print(format_span_tree(exporter.records))
            print()

            print("--- Prometheus exposition (same registry stats() reads) ---")
            text = telemetry.registry.render_prometheus()
            for line in text.splitlines():
                if "respect_requests_total" in line or line.startswith(
                    "respect_tier_lookups_total"
                ):
                    print(line)
            stats = service.stats()
            print()
            print(
                f"stats() view of the same instruments: "
                f"requests={stats.requests} cache_hits={stats.cache_hits}"
            )


if __name__ == "__main__":
    main()
