#!/usr/bin/env python3
"""Warm-starting a fleet build from a persistent schedule store.

Compiling a model catalog onto a fleet runs every ``(model, stage
count)`` pair through the RESPECT solver — the expensive part of a
deploy.  With ``build_fleet(..., store_dir=...)`` those schedules are
persisted to a content-addressed on-disk store, so the *next* build
over the same directory (a redeploy, a config rollout, a crashed box
coming back) reuses them byte-for-byte instead of re-solving.

This walkthrough builds a heterogeneous fleet twice over one store
directory and prints the reuse delta: the cold build pays one solve per
distinct ``(model, stages, scheduler options)`` triple, the warm build
pays zero.

Usage::

    PYTHONPATH=src python examples/warm_start_fleet.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.cluster import build_fleet
from repro.cluster.scenarios import heterogeneous_fleet
from repro.models.zoo import build_model
from repro.rl.respect import RespectScheduler
from repro.service import DiskScheduleStore
from repro.utils.tables import format_table

MODELS = ("Xception", "ResNet50")


def timed_build(replicas, models, store_dir):
    start = time.perf_counter()
    fleet = build_fleet(
        replicas, models, scheduler=RespectScheduler(), store_dir=store_dir
    )
    return fleet, time.perf_counter() - start


def main() -> None:
    replicas = heterogeneous_fleet(4)
    models = {name: build_model(name) for name in MODELS}
    stage_counts = sorted({spec.num_stages for spec in replicas})
    print(
        f"catalog: {len(models)} models x {len(replicas)} replicas "
        f"(stage counts {stage_counts})"
    )

    with tempfile.TemporaryDirectory(prefix="warm_start_fleet_") as tmp:
        store_dir = Path(tmp) / "schedule-store"

        # 1. Cold build: the store directory is empty, so every distinct
        #    (model, stage count) pair costs a RESPECT solve.  Replicas
        #    sharing a stage count already reuse within the build.
        cold, cold_s = timed_build(replicas, models, store_dir)

        # 2. Warm build: a *fresh* scheduler and a *fresh* service — as
        #    after a process restart — over the same directory.  Every
        #    request is answered from disk; zero solver invocations.
        warm, warm_s = timed_build(replicas, models, store_dir)

        rows = []
        for label, fleet, seconds in (
            ("cold (empty store)", cold, cold_s),
            ("warm (same store dir)", warm, warm_s),
        ):
            stats = fleet.build_stats
            rows.append(
                [
                    label,
                    stats.schedule_requests,
                    stats.cache_hits,
                    stats.unique_solves,
                    f"{100 * stats.hit_rate:.0f}%",
                    f"{seconds * 1e3:.0f} ms",
                ]
            )
        print()
        print(
            format_table(
                ["build", "requests", "reused", "solves", "reuse", "wall"],
                rows,
                title="fleet build: cold vs warm over one store directory",
            )
        )

        with DiskScheduleStore(store_dir) as store:
            disk = store.stats()
        print(
            f"\nstore: {disk.entries} schedule(s) in {disk.segments} "
            f"segment(s) under {store_dir.name}/"
        )

    assert warm.build_stats.unique_solves == 0, "warm build must not solve"
    print(
        "\nThe warm build solved nothing: every schedule came back from "
        "the persistent\nstore, bit-identical to the cold build's — the "
        "same mechanism warm-starts\na SchedulingService of any shard "
        "count after a restart (see\nservice.restore())."
    )


if __name__ == "__main__":
    main()
