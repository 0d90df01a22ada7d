"""Benchmark — the sharded serving tier under a 64-client load test.

Drives a 64-client load generator against
:class:`~repro.service.SchedulingService` at 1, 2 and 4 shards
and measures **aggregate throughput scaling**.  Three serving regimes:

* **solver-bound** — each solve occupies the shard's worker for a fixed
  wall-clock slice without holding the GIL, modeling the out-of-process
  backends a production tier fronts (ILP solver, edgetpu-compiler
  invocation, accelerator round-trip).  A single worker serializes
  those occupancies; N shards overlap them — the >= 2x (1 -> 4 shards)
  acceptance bar is asserted here.
* **respect policy (in-process)** — the numpy pointer-network decode on
  the shard workers' own threads.  Shard scaling is reported but not
  asserted: an in-process numpy solve is GIL-bound, so its scaling is a
  property of the host's cores, not of the tier.
* **respect policy (decode workers)** — the same traffic with the
  decode dispatched to one shared 4-process
  :class:`~repro.service.DecodeWorkerPool` (the ``decode_workers``
  serving mode).  This is the regime that breaks the GIL ceiling: on a
  host with >= 4 cores the 1 -> 4 shard scaling bar (>= 2x) is asserted;
  on smaller runners it is reported (there is nothing to scale onto).

Every regime measures **process CPU utilization** (self + reaped
children CPU over the regime's wall-clock, via ``os.times``) — the
number that shows whether a scaling figure was core-starved or truly
saturated — and records it, with the host core count, in
``BENCH_sharded_service.json``.

Every configuration asserts **bit-identical schedules**: sharded
results must equal the single-shard service's results and direct
``scheduler.schedule`` calls — including the decode-worker regime.  A
backpressure round additionally runs the 4-shard tier with a tiny
per-shard queue depth under the ``block`` admission policy and asserts
nothing is lost.

Runs under pytest (full acceptance bars) or standalone for CI smoke::

    PYTHONPATH=src python benchmarks/bench_sharded_service.py --smoke
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_sharded_service.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.heuristics import ListScheduler
from repro.service import SchedulingService
from repro.utils.tables import format_table

NUM_CLIENTS = 64
NUM_NODES = 12
NUM_STAGES = 4
REQUESTS_PER_CLIENT = 4
SHARD_COUNTS = (1, 2, 4)
#: Worker occupancy per solve in the solver-bound regime (wall-clock a
#: backend holds the shard worker; no GIL, no CPU).
SOLVE_OCCUPANCY_S = 0.002
#: Decode worker processes in the worker-decode regime.
DECODE_WORKERS = 4


class ExternalSolverScheduler:
    """Deterministic scheduler modeling an out-of-process backend.

    Produces :class:`ListScheduler` schedules, but each solve first
    occupies the calling worker for ``occupancy_s`` of wall-clock
    (``time.sleep`` releases the GIL — exactly how a subprocess ILP
    solver or an edgetpu-compiler call behaves from the worker's point
    of view).  Deterministic, so sharded results stay bit-identical.
    """

    method_name = "external_solver"

    def __init__(self, occupancy_s: float = SOLVE_OCCUPANCY_S):
        self.occupancy_s = occupancy_s
        self._inner = ListScheduler()

    def schedule(self, graph, num_stages):
        time.sleep(self.occupancy_s)
        return self._inner.schedule(graph, num_stages)

    def schedule_batch(self, graphs, stage_counts):
        time.sleep(self.occupancy_s * len(graphs))
        return [
            self._inner.schedule(g, s) for g, s in zip(graphs, stage_counts)
        ]


class _CpuWindow:
    """Process CPU (self + reaped children) vs wall-clock over a block.

    Child CPU is only charged to ``os.times`` once a child is *reaped*,
    so regimes running decode worker processes must close their pool
    inside the window for the workers' cycles to be counted.
    """

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = os.times()
        return self

    def __exit__(self, *exc_info):
        c0, c1 = self._cpu0, os.times()
        self.wall_s = time.perf_counter() - self._wall0
        self.process_cpu_s = (c1.user - c0.user) + (c1.system - c0.system)
        self.children_cpu_s = (c1.children_user - c0.children_user) + (
            c1.children_system - c0.children_system
        )
        total = self.process_cpu_s + self.children_cpu_s
        self.utilization = total / self.wall_s if self.wall_s > 0 else 0.0

    def metrics(self, prefix: str) -> dict:
        return {
            f"{prefix}_wall_s": self.wall_s,
            f"{prefix}_process_cpu_s": self.process_cpu_s,
            f"{prefix}_children_cpu_s": self.children_cpu_s,
            f"{prefix}_cpu_utilization": self.utilization,
        }


def _make_graphs(count: int, num_nodes: int):
    return [
        sample_synthetic_dag(num_nodes=num_nodes, degree=3, seed=seed)
        for seed in range(count)
    ]


def _drive_load(service, graphs, num_clients: int):
    """64-client load generator: each client serves its request slice."""
    results = [None] * len(graphs)

    def client(slot: int):
        for i in range(slot, len(graphs), num_clients):
            results[i] = service.schedule(graphs[i], NUM_STAGES)

    start = time.perf_counter()
    with ThreadPoolExecutor(num_clients) as pool:
        futures = [pool.submit(client, slot) for slot in range(num_clients)]
        for future in futures:
            future.result()
    elapsed = time.perf_counter() - start
    return elapsed, results


def _assert_identical(reference, results):
    for ref, res in zip(reference, results):
        assert res.schedule.assignment == ref.schedule.assignment, (
            "sharded schedule differs from the reference"
        )


def run_sharded_bench(
    scheduler_factory,
    num_clients: int = NUM_CLIENTS,
    num_nodes: int = NUM_NODES,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    max_batch_size: int = 16,
    label: str = "solver-bound",
    decode_pool=None,
):
    """Throughput at 1/2/4 shards + equivalence; returns (table, metrics).

    Every request in a round is a distinct graph (no cache hits), so the
    measured scaling is pure sharding, not caching.  ``decode_pool``
    routes every shard's policy decode through one shared
    :class:`~repro.service.DecodeWorkerPool` (the pool outlives the
    per-cell services; the caller owns and closes it).
    """
    graphs = _make_graphs(num_clients * requests_per_client, num_nodes)
    reference_scheduler = scheduler_factory()
    reference = [
        reference_scheduler.schedule(g, NUM_STAGES) for g in graphs
    ]

    if decode_pool is not None:
        # Warm-up round: the pool lazily spawns its workers on first
        # use and each worker imports numpy + loads weights once.  Pay
        # that cold start here so the timed cells measure steady-state
        # decode, not process startup.
        with SchedulingService(
            scheduler_factory(),
            num_shards=1,
            max_queue_depth=len(graphs),
            max_batch_size=1,  # one task per graph: touch every worker
            batch_window_s=0.0,
            decode_pool=decode_pool,
        ) as warmup:
            _drive_load(warmup, graphs[: 4 * DECODE_WORKERS], num_clients)

    throughput = {}
    stats_by_shards = {}
    for num_shards in SHARD_COUNTS:
        with SchedulingService(
            scheduler_factory(),
            num_shards=num_shards,
            max_queue_depth=len(graphs),  # admission out of the picture
            max_batch_size=max_batch_size,
            batch_window_s=0.001,
            decode_pool=decode_pool,
        ) as service:
            elapsed, results = _drive_load(service, graphs, num_clients)
            _assert_identical(reference, results)
            throughput[num_shards] = len(graphs) / elapsed
            stats_by_shards[num_shards] = service.stats()

    # Backpressure round: tiny queue depth, block policy — slower by
    # design, but nothing may be lost or served non-identically.
    with SchedulingService(
        scheduler_factory(),
        num_shards=4,
        max_queue_depth=4,
        admission="block",
        max_batch_size=max_batch_size,
        batch_window_s=0.001,
        decode_pool=decode_pool,
    ) as service:
        _, results = _drive_load(service, graphs, num_clients)
        _assert_identical(reference, results)
        blocked = service.stats().blocked

    scaling_2 = throughput[2] / throughput[1]
    scaling_4 = throughput[4] / throughput[1]
    stats4 = stats_by_shards[4]
    rows = [
        [
            f"{n} shard{'s' if n > 1 else ''}",
            f"{throughput[n]:.0f} req/s",
            f"{throughput[n] / throughput[1]:.2f}x",
            f"{stats_by_shards[n].mean_batch_size:.1f}",
            f"{stats_by_shards[n].latency_p99_s * 1e3:.1f} ms",
        ]
        for n in SHARD_COUNTS
    ]
    table = format_table(
        ["tier", "throughput", "scaling", "mean batch", "p99 latency"],
        rows,
        title=(
            f"Sharded serving ({label}) — {num_clients} clients, "
            f"{len(graphs)} distinct |V|={num_nodes} graphs, "
            f"{NUM_STAGES}-stage pipelines"
        ),
    )
    summary = (
        f"aggregate throughput scaling 1->4 shards: {scaling_4:.2f}x\n"
        f"schedules bit-identical across 1/2/4 shards and direct calls; "
        f"backpressure round (depth 4, block): {blocked} blocked "
        f"admissions, zero lost requests"
    )
    metrics = {
        "throughput_1_shard_req_s": throughput[1],
        "throughput_2_shards_req_s": throughput[2],
        "throughput_4_shards_req_s": throughput[4],
        "scaling_1_to_2": scaling_2,
        "scaling_1_to_4": scaling_4,
        "mean_batch_size_4_shards": stats4.mean_batch_size,
        "latency_p50_s_4_shards": stats4.latency_p50_s,
        "latency_p99_s_4_shards": stats4.latency_p99_s,
        "blocked_admissions_backpressure_round": blocked,
    }
    return table + "\n" + summary, metrics


def host_info() -> dict:
    """Host context for the JSON artifact (scaling needs cores)."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
        "decode_workers": DECODE_WORKERS,
    }


def worker_scaling_asserted() -> bool:
    """Is the decode-worker >= 2x scaling bar meaningful on this host?

    With fewer than 4 cores there is nothing for 4 shards + 4 decode
    workers to scale onto — the regime is then reported, not asserted
    (the CPU-utilization metrics make the saturation visible either
    way).
    """
    return (os.cpu_count() or 1) >= 4


def run_full(num_clients=NUM_CLIENTS, requests_per_client=REQUESTS_PER_CLIENT):
    """All regimes; returns (rendered, combined_metrics)."""
    from repro.rl.respect import RespectScheduler
    from repro.service import DecodeWorkerPool

    with _CpuWindow() as solver_cpu:
        solver_table, solver_metrics = run_sharded_bench(
            ExternalSolverScheduler,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            label="solver-bound",
        )

    respect = RespectScheduler()
    respect_requests = max(1, requests_per_client // 2)
    with _CpuWindow() as respect_cpu:
        respect_table, respect_metrics = run_sharded_bench(
            lambda: respect,  # weights are read-only: share across shards
            num_clients=num_clients,
            num_nodes=NUM_NODES,
            requests_per_client=respect_requests,
            label="respect policy, in-process decode",
        )

    # Decode-worker regime: one shared 4-process pool across every
    # shard-count cell; closed inside the CPU window so the workers'
    # cycles are reaped into the children CPU reading.
    with _CpuWindow() as workers_cpu:
        pool = DecodeWorkerPool(DECODE_WORKERS)
        try:
            workers_table, workers_metrics = run_sharded_bench(
                lambda: respect,
                num_clients=num_clients,
                num_nodes=NUM_NODES,
                requests_per_client=respect_requests,
                label=f"respect policy, {DECODE_WORKERS} decode workers",
                decode_pool=pool,
            )
        finally:
            pool.close()

    metrics = {f"solver_{k}": v for k, v in solver_metrics.items()}
    metrics.update({f"respect_{k}": v for k, v in respect_metrics.items()})
    metrics.update(
        {f"respect_workers_{k}": v for k, v in workers_metrics.items()}
    )
    metrics.update(solver_cpu.metrics("solver"))
    metrics.update(respect_cpu.metrics("respect"))
    metrics.update(workers_cpu.metrics("respect_workers"))
    metrics["host_cpu_count"] = os.cpu_count()
    metrics["worker_scaling_asserted"] = worker_scaling_asserted()

    def cpu_line(name, window):
        return (
            f"{name}: {window.utilization:.2f} cores busy over "
            f"{window.wall_s:.1f} s (self {window.process_cpu_s:.1f} s + "
            f"children {window.children_cpu_s:.1f} s CPU)"
        )

    rendered = (
        solver_table
        + "\n\n"
        + respect_table
        + "\n(in-process respect scaling is GIL/host-core-bound; "
        "reported, not asserted)"
        + "\n\n"
        + workers_table
        + "\n(decode-worker scaling bar >= 2x asserted only on hosts "
        f"with >= 4 cores; this host has {os.cpu_count()})"
        + "\n\nCPU utilization per regime "
        f"(host: {os.cpu_count()} core(s)):\n"
        + "\n".join(
            [
                cpu_line("  solver-bound        ", solver_cpu),
                cpu_line("  respect in-process  ", respect_cpu),
                cpu_line("  respect decode-pool ", workers_cpu),
            ]
        )
    )
    return rendered, metrics


def test_sharded_service_throughput(emit):
    """Full acceptance run: the solver-bound >= 2x scaling bar."""
    rendered, metrics = run_full()
    emit(
        "sharded_service",
        rendered,
        metrics=metrics,
        seed=0,
        host=host_info(),
    )
    assert metrics["solver_scaling_1_to_4"] >= 2.0
    assert metrics["solver_scaling_1_to_2"] >= 1.2
    assert metrics["solver_blocked_admissions_backpressure_round"] > 0
    if worker_scaling_asserted():
        assert metrics["respect_workers_scaling_1_to_4"] >= 2.0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "reduced CI configuration: 16 clients, fewer requests; "
            "equivalence stays asserted everywhere, the solver-bound "
            "scaling bar relaxes to 1.5x (shared CI runners are noisy)"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rendered, metrics = run_full(num_clients=16, requests_per_client=2)
        bar = 1.5
    else:
        rendered, metrics = run_full()
        bar = 2.0
    from bench_json import write_bench_json

    write_bench_json("sharded_service", metrics, seed=0, host=host_info())
    print(rendered)
    if metrics["solver_scaling_1_to_4"] < bar:
        print(
            f"FAIL: solver-bound 1->4 shard scaling "
            f"{metrics['solver_scaling_1_to_4']:.2f}x below {bar}x",
            file=sys.stderr,
        )
        return 1
    if worker_scaling_asserted() and (
        metrics["respect_workers_scaling_1_to_4"] < bar
    ):
        print(
            f"FAIL: decode-worker 1->4 shard scaling "
            f"{metrics['respect_workers_scaling_1_to_4']:.2f}x below "
            f"{bar}x on a {os.cpu_count()}-core host",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
