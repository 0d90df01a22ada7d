"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the diagnostics (host record, probe readings, raw timings).
Any wrong answer makes the command exit with code 1.
"""

import argparse
import ctypes
import faulthandler
import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("compile_zoo", "serve_cold", "serve_workers", "serve_hot")
SETUP_REPEATS = 3
#: Imports timed in a fresh interpreter, once per set-up repetition.
IMPORTS = (
    "import time; start = time.perf_counter(); "
    "import repro, repro.service, repro.models.zoo; "
    "print(time.perf_counter() - start)"
)
#: Samples the tail percentile must leave beyond it.
TAIL_SAMPLES = 10
#: Hard stop well inside the 180 s a run may take.
WATCHDOG_S = 170
#: Set by the supervising process to the run's scratch directory.
WORKDIR_ENV = "PERFBENCH_WORKDIR"
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it."""
    return max(0, math.floor(100 * (count - TAIL_SAMPLES) / count)) if count else 0


def percentile(ordered, q: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def completed(result):
    return [lat for lat in result.latencies if lat is not None]


def unit_costs(chunks, period, adjusted=True):
    """Seconds per request and median latency, one pair per unit.

    A unit is a chunk, or, when the request list repeats every ``period``
    chunks (compile_zoo: one chunk per model compile), one request: the
    median of its repeats.  Medians keep a burst on the host from moving
    the result much.
    """
    if period:
        repeats = [
            [lat * (f if adjusted else 1.0) for r, _, f in chunks[i::period] for lat in completed(r)]
            for i in range(period)
        ]
        return [(statistics.median(x), statistics.median(x)) for x in repeats if x]
    units = []
    for result, seconds, factor in chunks:
        scale = factor if adjusted else 1.0
        done = completed(result)
        if done:
            units.append((seconds * scale / len(done), statistics.median(done) * scale))
    return units


def per_request_cost(chunks, period, adjusted=True) -> float:
    """Seconds per completed request (see ``unit_costs``)."""
    costs = [cost for cost, _ in unit_costs(chunks, period, adjusted)]
    return statistics.fmean(costs) if period else statistics.median(costs)


def summarize(chunks, period):
    """Throughput, p50 and tail over ``(result, raw seconds, factor)``.

    Serving: throughput is the median of the chunk rates and p50 the
    median of the chunk medians.  compile_zoo: the models' median compile
    times, totalled for throughput.  The tail is taken over every request.
    """
    out = {}
    for label in ("adjusted", "raw"):
        adjusted = label == "adjusted"
        latencies = sorted(
            lat * (f if adjusted else 1.0) for r, _, f in chunks for lat in completed(r)
        )
        out[label] = {
            "throughput_rps": 1.0 / per_request_cost(chunks, period, adjusted),
            "latency_p50_ms": statistics.median(
                p50 for _, p50 in unit_costs(chunks, period, adjusted)
            ) * 1e3,
            "latency_tail_ms": percentile(latencies, tail_percentile(len(latencies))) * 1e3,
        }
    out["samples"] = len(latencies)
    out["tail_percentile"] = tail_percentile(len(latencies))
    out["chunks"] = [
        [round(seconds, 6), round(factor, 6), len(completed(result))]
        for result, seconds, factor in chunks
    ]
    return out


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its live decode workers.

    Read right after the timed loop, before the checks.  The workers are
    the only child processes the program owns; the import-timing
    interpreters and serve_hot's store preparation run in children that
    are not counted.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            kib += next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return kib / 1024.0


def pin_to_one_cpu() -> None:
    """Run every thread and child process of the run on one CPU.

    On a shared host the CPUs slow down independently, so the probe only
    tracks the work when both run on the same CPU.  Threads and processes
    started later inherit the affinity.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(args, workdir: Path) -> int:
    from hostspeed import HostClock, host_record
    from layers import SpanRecorder, layer_metrics, replay_layers
    from workloads import WORKLOADS, check_against_direct, valid_answer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    pin_to_one_cpu()
    clock = HostClock()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    workload.prepare()

    handle = None
    try:
        # Set-up, repeated: imports in a fresh interpreter, then everything
        # up to ready-to-send.  The last service serves the measured requests.
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            if handle is not None:
                workload.teardown(handle)
                handle = None
            imports.append(clock.chunk(time_imports))
            setups.append(clock.chunk(workload.setup))
            handle = setups[-1][0]
        setup_adj = statistics.median(i * f for i, _, f in imports) + statistics.median(
            r * f for _, r, f in setups
        )
        setup_raw = statistics.median(i for i, _, _ in imports) + statistics.median(
            r for _, r, _ in setups
        )

        recorder = SpanRecorder() if args.trace else None
        period = workload.period or 1
        before = workload.counts(handle)
        plain, traced, kept = [], [], []
        attempted = correct = 0
        for index, chunk in enumerate(workload.chunks()):
            items = workload.materialize(chunk)
            gc.collect()  # every chunk starts from the same heap state
            # Traced runs trace every other chunk (every other pass of a
            # repeated request list), so both sides cover the same requests.
            spans = recorder if args.trace and (index // period) % 2 == 1 else None
            measured = clock.chunk(lambda: workload.run_chunk(handle, items, spans))
            (traced if spans is not None else plain).append(measured)
            answers = measured[0].answers
            attempted += len(answers)
            correct += sum(valid_answer(g, k, r) for g, k, r in answers)
            kept.extend(workload.retain(chunk, answers))
            measured[0].answers = None  # keep memory flat across chunks
        peak_rss = peak_rss_mb()
        after = workload.counts(handle)
        counts = {name: after[name] - before.get(name, 0) for name in after}
        if "service.batches" in counts:
            counts["service.mean_batch_size"] = (
                counts["service.scheduled"] / max(1, counts["service.batches"])
            )

        identity, speedup_items = workload.check_samples(kept)
        mismatches, speedup = check_against_direct(identity, speedup_items)
        # An answer that differs from the direct schedule is a wrong answer.
        correct -= mismatches

        if args.trace:
            seconds, layer_sum = replay_layers(workload, handle, clock, recorder, kept, counts)
            seconds["residual"] = per_request_cost(plain, workload.period) - layer_sum
            # The first chunk (pass) also pays first-use costs, so the
            # untraced side of the overhead starts after it.
            seconds["trace_overhead"] = per_request_cost(
                traced, workload.period
            ) - per_request_cost(plain[period:] or plain, workload.period)
    finally:
        if handle is not None:
            workload.teardown(handle)

    summary = summarize(plain, workload.period)
    adjusted = summary["adjusted"]
    failed = attempted - correct
    metrics = {
        "setup_s": setup_adj,
        "throughput_rps": adjusted["throughput_rps"],
        "latency_p50_ms": adjusted["latency_p50_ms"],
        "latency_tail_ms": adjusted["latency_tail_ms"],
        "answered_ratio": correct / max(1, attempted),
        "schedule_speedup": speedup,
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        metrics = layer_metrics(seconds, counts, units)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_record(),
        "probe": clock.summary(),
        "raw": dict(summary["raw"], setup_s=setup_raw),
        "adjusted": dict(adjusted, setup_s=setup_adj),
        "samples": summary["samples"],
        "tail_percentile": summary["tail_percentile"],
        "chunks": summary["chunks"],
        "identity_checked": len(identity),
        "identity_mismatches": mismatches,
        "speedup_samples": len(speedup_items),
        "counts": counts,
    }
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    ok = failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if ok else 1


def supervise(args, argv) -> int:
    """Run the benchmark in a child process group, then reap all of it.

    The supervisor adopts orphaned descendants (a Linux child subreaper),
    so every process the run starts -- decode workers, the
    multiprocessing resource tracker, import-timing interpreters -- is
    waited for here, also when the run overruns ``WATCHDOG_S`` and its
    whole group is killed.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it, orphans are reaped by init instead
    # Keep every file the run writes (stores, decode-pool weights) inside
    # the checkout; spawned decode workers inherit the environment.
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(
        [sys.executable, __file__, *argv],
        env=dict(os.environ, **{WORKDIR_ENV: str(workdir)}),
        process_group=0,
    )
    try:
        return child.wait(WATCHDOG_S)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGUSR1)  # the child dumps its stacks
        time.sleep(1.0)
        print(f"error: the run did not end within {WATCHDOG_S} s", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing under {source}", file=sys.stderr)
        return 2
    if WORKDIR_ENV not in os.environ:
        return supervise(args, argv)
    faulthandler.register(signal.SIGUSR1)
    workdir = Path(os.environ[WORKDIR_ENV])
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(source))
    return run(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
