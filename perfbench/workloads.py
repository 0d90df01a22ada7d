"""The four benchmark workloads: seeded inputs, set-up, timed loop.

Every workload replays a fixed, seeded list of requests to completion
(fixed work per run, never a fixed duration), cut into fixed chunks so
that the host-speed probe can run between them.  The program sees only
the generated inputs.

``compile_zoo``
    The paper's offline flow: one sequential client compiles each of
    the ten Fig. 4 models -- ``quantize_graph(build_model(m))`` then
    ``schedule_stage_sweep(g, (4, 5, 6))``.  One request is one model.
``serve_cold``
    Distinct synthetic DAGs sent to ``SchedulingService`` over a fresh
    store directory by a closed loop of 8 outstanding requests.  Every
    request misses; decode is micro-batched and every answer is stored.
``serve_workers``
    The same inputs and loop as ``serve_cold`` with ``decode_workers=1``:
    only where decode runs differs.
``serve_hot``
    ``HOT_KEYS`` (graph, stages) keys are solved into a store before
    timing; a fresh service reopens it with an LRU of ``HOT_LRU``
    entries and one client sends Zipf-distributed requests, each a
    fresh ``graph.copy()``.  Almost every request is a memory or disk
    hit, so decode does no work.  Key shapes cycle with popularity rank,
    so the traffic's size mix does not depend on the seed.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    EdgeTpuCompilerProxy,
    RespectScheduler,
    SyntheticDAGSampler,
    build_model,
    deploy,
    quantize_graph,
)
from repro.graphs import graph_fingerprint
from repro.models.zoo import FIG4_MODELS
from repro.service import SchedulingService

STAGE_CHOICES = (4, 5, 6)
NODE_CHOICES = (30, 60, 90)
DEGREE_CHOICES = (2, 3, 4)
#: Outstanding requests of the serving closed loop (virtual clients).
CLIENTS = 8
#: Requests per timed chunk of the serving workloads.
COLD_CHUNK = 96
HOT_CHUNK = 1024
#: Requests per ``--seconds`` (sized so a run measures about that long).
COLD_PER_SECOND = 96
HOT_PER_SECOND = 2048
#: Working set, LRU capacity and Zipf exponent of ``serve_hot``.
HOT_KEYS = 512
HOT_LRU = 128
HOT_ZIPF = 1.1
#: Seconds per pass over the model zoo, for sizing ``compile_zoo``.
ZOO_PASS_S = 2.5
#: (|V|, degree) of compile_zoo's warm-up graph, larger than most models.
ZOO_WARMUP_SHAPE = (500, 4)
#: Seeded sample of serving answers compared bit for bit with a direct
#: ``RespectScheduler.schedule``; ``compile_zoo`` checks ``ZOO_IDENTITY``
#: of its 30 (model, stages) pairs.  ``schedule_speedup`` is taken over
#: every distinct answer, since a sample this size would make it vary
#: with the seed by more than its bound.
SAMPLE = 96
ZOO_IDENTITY = 6
SIM_INFERENCES = 100
#: A chunk that has not completed after this long counts as failed.
CHUNK_TIMEOUT_S = 120.0
#: Every (|V|, degree) shape, cycled through by ``serve_hot``'s key ranks.
SHAPES = [(n, d) for n in NODE_CHOICES for d in DEGREE_CHOICES]


def sample_graph(rng: random.Random, shape: Optional[Tuple[int, int]] = None):
    """One serving graph: |V| in {30, 60, 90}, degree in {2, 3, 4}."""
    nodes, degree = shape or (rng.choice(NODE_CHOICES), rng.choice(DEGREE_CHOICES))
    return SyntheticDAGSampler(
        num_nodes=nodes, degree=degree, seed=rng.getrandbits(32)
    ).sample()


def distinct_requests(
    rng: random.Random, count: int, taken: set, cycle_shapes: bool = False
) -> List[tuple]:
    """``count`` requests on graphs whose fingerprints are not in ``taken``.

    ``cycle_shapes`` gives request ``i`` the shape ``SHAPES[i % 9]``.
    """
    out = []
    while len(out) < count:
        shape = SHAPES[len(out) % len(SHAPES)] if cycle_shapes else None
        graph = sample_graph(rng, shape)
        fingerprint = graph_fingerprint(graph)
        if fingerprint not in taken:
            taken.add(fingerprint)
            out.append((graph, rng.choice(STAGE_CHOICES)))
    return out


def valid_answer(graph, num_stages: int, result) -> bool:
    """A complete, dependency-respecting schedule with stages in range."""
    schedule = getattr(result, "schedule", None)
    if schedule is None or schedule.num_stages != num_stages:
        return False
    assignment = schedule.assignment
    return (
        set(assignment) == set(graph.node_names)
        and all(0 <= stage < num_stages for stage in assignment.values())
        and schedule.is_valid()
    )


@dataclass
class ChunkResult:
    """Raw per-request latencies (None = failed) and answers of a chunk."""

    latencies: List[Optional[float]]
    answers: Optional[List[tuple]]


class Workload:
    """Common flow; subclasses define inputs, set-up and the timed loop."""

    name = ""
    #: Chunks per repetition of the request list, when it repeats.
    period: Optional[int] = None

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.scheduler: Optional[RespectScheduler] = None

    # -- inputs (untimed) ------------------------------------------------
    def prepare(self) -> None:
        """Generate inputs and any untimed state."""

    def chunks(self) -> List[list]:
        raise NotImplementedError

    def materialize(self, chunk: list) -> list:
        """Turn a chunk into the exact inputs sent (before its timer)."""
        return chunk

    # -- set-up (timed, repeated) ----------------------------------------
    def setup(self):
        raise NotImplementedError

    def teardown(self, handle) -> None:
        handle.close()

    # -- timed loop ------------------------------------------------------
    def run_chunk(self, handle, chunk: list, recorder=None) -> ChunkResult:
        raise NotImplementedError

    def counts(self, handle) -> Dict[str, float]:
        return {}

    def retain(self, chunk: list, answers: List[tuple]) -> List[tuple]:
        """The answers of a chunk kept for the checks after the loop."""
        return answers

    # -- checks (untimed) ------------------------------------------------
    def check_samples(self, answers: List[tuple]):
        """``(identity items, speedup items)`` drawn from the answers."""
        answered = [a for a in answers if a[2] is not None]
        pick = random.Random(self.seed ^ 0x5EED)
        return pick.sample(answered, min(SAMPLE, len(answered))), answered


def serve_closed_loop(service, items: Sequence[tuple], clients: int, recorder=None):
    """Keep ``clients`` requests outstanding until ``items`` are answered.

    Latency runs from ``submit`` to the future's completion callback.
    """
    latencies: List[Optional[float]] = [None] * len(items)
    results: List[object] = [None] * len(items)
    slots = threading.Semaphore(clients)

    def finish(index, start, future):
        end = time.perf_counter()
        if future.exception() is None:
            latencies[index] = end - start
            results[index] = future.result()
        if recorder is not None:
            recorder.record("request", start, end)
        slots.release()

    for index, (graph, stages) in enumerate(items):
        slots.acquire()
        start = time.perf_counter()
        try:
            future = service.submit(graph, stages)
        except Exception:  # counted as a failed request
            slots.release()
            continue
        if recorder is not None:
            recorder.record("submit", start, time.perf_counter())
        future.add_done_callback(
            lambda f, i=index, s=start: finish(i, s, f)
        )
    # Reclaiming every slot means every completion callback has run
    # (``wait`` alone can return before the callbacks do).
    deadline = time.monotonic() + CHUNK_TIMEOUT_S
    for _ in range(clients):
        slots.acquire(timeout=max(0.0, deadline - time.monotonic()))
    answers = [
        (graph, stages, results[i]) for i, (graph, stages) in enumerate(items)
    ]
    return ChunkResult(latencies, answers)


def _untimed(_name, fn, *args):
    return fn(*args)


class CompileZoo(Workload):
    name = "compile_zoo"

    period = len(FIG4_MODELS)

    def prepare(self) -> None:
        # One chunk per compile, so the probe brackets each one closely.
        passes = max(4, round(self.seconds / ZOO_PASS_S))
        self._chunks = [[model] for _ in range(passes) for model in FIG4_MODELS]

    def chunks(self):
        return self._chunks

    def setup(self):
        scheduler = RespectScheduler()
        # A large warm-up graph takes the first-use cost of big buffers.
        warm = quantize_graph(sample_graph(random.Random(-1), ZOO_WARMUP_SHAPE))
        scheduler.schedule_stage_sweep(warm, STAGE_CHOICES)
        self.scheduler = scheduler
        return scheduler

    def teardown(self, handle) -> None:
        pass

    def run_chunk(self, scheduler, models, recorder=None):
        timed = recorder.timed if recorder is not None else _untimed
        latencies, answers = [], []
        for model in models:
            start = time.perf_counter()
            try:
                floating = timed("models.build", build_model, model)
                graph = timed("tpu.quantize", quantize_graph, floating)
                results = timed(
                    "rl.schedule_stage_sweep",
                    scheduler.schedule_stage_sweep, graph, STAGE_CHOICES,
                )
            except Exception:  # counted as a failed request
                latencies.append(None)
                answers.extend((None, k, None) for k in STAGE_CHOICES)
                continue
            end = time.perf_counter()
            if recorder is not None:
                recorder.record("request", start, end)
            latencies.append(end - start)
            answers.extend(
                (graph, k, result) for k, result in zip(STAGE_CHOICES, results)
            )
        return ChunkResult(latencies, answers)

    def check_samples(self, answers):
        first_pass = answers[: len(FIG4_MODELS) * len(STAGE_CHOICES)]
        pick = random.Random(self.seed ^ 0x5EED)
        return pick.sample(first_pass, min(ZOO_IDENTITY, len(first_pass))), first_pass


class ServeCold(Workload):
    name = "serve_cold"
    decode_workers = 0
    clients = CLIENTS

    def prepare(self) -> None:
        # At least two chunks, so a traced run has an untraced side.
        count = COLD_PER_SECOND * max(2, self.seconds)
        taken: set = set()
        self.warmup = distinct_requests(random.Random(-1), 1, taken)[0]
        self.items = distinct_requests(self.rng, count, taken)
        self._setups = 0

    def chunks(self):
        return [
            self.items[i : i + COLD_CHUNK]
            for i in range(0, len(self.items), COLD_CHUNK)
        ]

    def setup(self):
        self._setups += 1  # a fresh store per set-up: every request misses
        self.scheduler = RespectScheduler()
        service = SchedulingService(
            self.scheduler,
            store_dir=str(self.workdir / f"store-{self._setups}"),
            decode_workers=self.decode_workers,
        )
        service.schedule(*self.warmup)
        return service

    def run_chunk(self, service, chunk, recorder=None):
        return serve_closed_loop(service, chunk, self.clients, recorder)

    def counts(self, service):
        stats = service.stats()
        return {
            "service.batches": stats.batches,
            "service.scheduled": stats.scheduled_graphs,
            "service.tier_memory": stats.cache.hits - stats.cache.disk_hits,
            "service.tier_disk": stats.cache.disk_hits,
            "service.tier_miss": stats.cache.misses,
        }


class ServeWorkers(ServeCold):
    name = "serve_workers"
    decode_workers = 1

    def counts(self, service):
        out = super().counts(service)
        pool = service.scheduler.pool.stats()
        out["workers.decodes"] = pool.decodes
        out["workers.respawns"] = pool.respawns
        return out


class ServeHot(ServeCold):
    name = "serve_hot"
    clients = 1

    def prepare(self) -> None:
        self.warmup, self.keys = hot_keys(self.rng)
        weights = [1.0 / (rank + 1) ** HOT_ZIPF for rank in range(HOT_KEYS)]
        count = HOT_PER_SECOND * self.seconds
        self.stream = self.rng.choices(range(HOT_KEYS), weights=weights, k=count)
        self._retained: set = set()
        self.hot_dir = self.workdir / "hot-store"
        # Solved in a child process, so the preparation's memory does not
        # count towards the benchmark process's peak RSS.
        child = multiprocessing.get_context("spawn").Process(
            target=solve_hot_store, args=(self.seed, str(self.hot_dir))
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"serve_hot store preparation failed ({child.exitcode})")

    def chunks(self):
        return [
            self.stream[i : i + HOT_CHUNK]
            for i in range(0, len(self.stream), HOT_CHUNK)
        ]

    def setup(self):
        self.scheduler = RespectScheduler()
        service = SchedulingService(
            self.scheduler, store_dir=str(self.hot_dir), cache_capacity=HOT_LRU
        )
        graph, stages = self.warmup
        service.schedule(graph.copy(), stages)
        return service

    def materialize(self, indices):
        # Fresh copies, made before the chunk's timer starts: the cache
        # must recognise content, not the object.
        return [(self.keys[i][0].copy(), self.keys[i][1]) for i in indices]

    def retain(self, indices, answers):
        # One answer per key, so a popular key counts once in the checks.
        kept = []
        for index, answer in zip(indices, answers):
            if index not in self._retained:
                self._retained.add(index)
                kept.append(answer)
        return kept


def hot_keys(rng: random.Random):
    """serve_hot's warm-up request and its ``HOT_KEYS`` keys.

    Shapes cycle with the popularity rank, so the size mix of the traffic
    is the same for every seed.
    """
    taken: set = set()
    warmup = distinct_requests(random.Random(-1), 1, taken)[0]
    return warmup, distinct_requests(rng, HOT_KEYS, taken, cycle_shapes=True)


def solve_hot_store(seed: int, store_dir: str) -> None:
    """Solve serve_hot's warm-up request and keys into ``store_dir``."""
    warmup, keys = hot_keys(random.Random(seed))
    requests = [warmup] + keys
    with SchedulingService(RespectScheduler(), store_dir=store_dir) as service:
        service.schedule_batch([g for g, _ in requests], [k for _, k in requests])


WORKLOADS = {w.name: w for w in (CompileZoo, ServeCold, ServeWorkers, ServeHot)}


def check_against_direct(identity_items, speedup_items):
    """Bit-identity failures and the geometric-mean schedule speedup."""
    direct = RespectScheduler()
    mismatches = 0
    for graph, stages, result in identity_items:
        if not valid_answer(graph, stages, result):
            continue  # already counted as a wrong answer
        expected = direct.schedule(graph, stages).schedule.assignment
        if dict(result.schedule.assignment) != dict(expected):
            mismatches += 1
    proxy = EdgeTpuCompilerProxy()
    logs = []
    for graph, stages, result in speedup_items:
        if result is None:
            continue
        baseline = proxy.schedule(graph, stages).schedule
        base_s = deploy(graph, baseline).simulate(SIM_INFERENCES).seconds_per_inference
        ours_s = deploy(graph, result.schedule).simulate(SIM_INFERENCES).seconds_per_inference
        logs.append(math.log(base_s / ours_s))
    speedup = math.exp(sum(logs) / len(logs)) if logs else float("nan")
    return mismatches, speedup
