#!/usr/bin/env python3
"""Sharded serving walkthrough: fan-out, backpressure, async, hot-swap.

A one-shard :class:`~repro.service.SchedulingService` is a single solver
worker.  ``SchedulingService(..., num_shards=N)`` is the production
shape: N shards (each with its own fingerprint cache, micro-batcher and
hot-swap slot) behind a consistent-hash router keyed by graph
fingerprint, with bounded admission per shard.  This demo walks the
four capabilities in order:

1. **fan-out + equivalence** — a 32-client burst over 4 shards, with
   every served schedule bit-identical to a direct scheduler call;
2. **admission control** — the same burst against depth-limited shards
   under each policy (``block`` waits, ``shed`` raises
   ``ServiceOverloadError``, ``degrade`` answers inline from the
   degrade ladder's ListScheduler floor rung);
3. **async facade** — ``await service.asubmit(...)`` from an asyncio
   application, futures bridged from the thread tier;
4. **per-shard hot swap** — a new policy version installed shard by
   shard while traffic flows, with the retired version's cache entries
   evicted from every shard.

Usage::

    PYTHONPATH=src python examples/sharded_serving.py
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ServiceOverloadError
from repro.graphs.sampler import sample_synthetic_dag
from repro.rl.respect import RespectScheduler
from repro.service import SchedulingService

NUM_CLIENTS = 32
NUM_MODELS = 24
NUM_STAGES = 4
NUM_SHARDS = 4


def burst(service, workload):
    with ThreadPoolExecutor(NUM_CLIENTS) as pool:
        futures = [
            pool.submit(service.schedule, graph, NUM_STAGES)
            for graph in workload
        ]
        return [future.result() for future in futures]


def main() -> None:
    scheduler = RespectScheduler()
    models = [
        sample_synthetic_dag(num_nodes=14 + (seed % 3) * 4, degree=3, seed=seed)
        for seed in range(NUM_MODELS)
    ]
    scheduler.schedule(models[0], NUM_STAGES)  # warm the inference path
    direct = {id(g): scheduler.schedule(g, NUM_STAGES) for g in models}

    # -- 1. fan-out across 4 shards ------------------------------------
    with SchedulingService(scheduler, num_shards=NUM_SHARDS) as service:
        start = time.perf_counter()
        served = burst(service, models)
        elapsed = time.perf_counter() - start
        stats = service.stats()
        identical = all(
            s.schedule.assignment == direct[id(g)].schedule.assignment
            for s, g in zip(served, models)
        )
        print(f"1. {len(models)} models over {NUM_SHARDS} shards: "
              f"{elapsed * 1e3:.1f} ms ({len(models) / elapsed:.0f} req/s), "
              f"identical={identical}")
        print(f"   per-shard requests: "
              f"{[s.requests for s in stats.per_shard]} "
              f"(consistent-hash routing by graph fingerprint)")

    # -- 2. admission control ------------------------------------------
    print(f"2. admission at depth 2 per shard, {NUM_CLIENTS} clients:")
    with SchedulingService(
        scheduler, num_shards=NUM_SHARDS, max_queue_depth=2,
        admission="block",
    ) as service:
        burst(service, models)
        print(f"   block   -> every request served; "
              f"{service.stats().blocked} submits waited for a drain")
    with SchedulingService(
        scheduler, num_shards=NUM_SHARDS, max_queue_depth=2,
        admission="shed",
    ) as service:
        served_ok = 0
        shed = 0
        with ThreadPoolExecutor(NUM_CLIENTS) as pool:
            def try_one(graph):
                try:
                    service.schedule(graph, NUM_STAGES)
                    return True
                except ServiceOverloadError:
                    return False
            outcomes = list(pool.map(try_one, models))
        served_ok = sum(outcomes)
        shed = len(outcomes) - served_ok
        print(f"   shed    -> {served_ok} served, {shed} rejected with "
              f"ServiceOverloadError (caller retries)")
    with SchedulingService(
        scheduler, num_shards=NUM_SHARDS, max_queue_depth=2,
        admission="degrade",
    ) as service:
        results = burst(service, models)
        degraded = sum(bool(r.extras.get("degraded")) for r in results)
        print(f"   degrade -> every request answered; {degraded} by the "
              f"ListScheduler floor rung (bounded latency, lower quality)")

    # -- 3. async facade ------------------------------------------------
    async def async_app(service):
        results = await asyncio.gather(
            *[service.asubmit(g, NUM_STAGES) for g in models[:8]]
        )
        return sum(
            r.schedule.assignment == direct[id(g)].schedule.assignment
            for r, g in zip(results, models[:8])
        )

    with SchedulingService(scheduler, num_shards=NUM_SHARDS) as service:
        matched = asyncio.run(async_app(service))
        print(f"3. asyncio facade: {matched}/8 awaited results identical "
              f"to direct calls")

    # -- 4. per-shard hot swap ------------------------------------------
    # A real promotion installs *different* weights (a fine-tuned
    # challenger); its options fingerprint differs from the champion's,
    # so the champion's cache entries are genuinely stale afterwards.
    from repro.online import scheduler_with_policy
    from repro.rl.ptrnet import PointerNetworkPolicy

    challenger = scheduler_with_policy(
        scheduler,
        PointerNetworkPolicy(
            feature_dim=scheduler.embedding_config.feature_dim,
            hidden_size=16,
            seed=1,
        ),
    )
    assert (
        challenger.options_fingerprint() != scheduler.options_fingerprint()
    )
    with SchedulingService(scheduler, num_shards=NUM_SHARDS) as service:
        for graph in models:
            service.schedule(graph, NUM_STAGES)
        old_key = service.swap_scheduler(challenger)
        evicted = service.invalidate_options(old_key)
        post = service.schedule(models[0], NUM_STAGES)
        print(f"4. hot swap: all {NUM_SHARDS} shards now run the "
              f"challenger; {evicted} stale champion cache entries "
              f"evicted; post-swap serve solved fresh "
              f"(cache_hit={post.extras['cache_hit']})")


if __name__ == "__main__":
    main()
