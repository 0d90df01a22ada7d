"""Steadiness report: repeat workloads and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve_hot --runs 10

Run ``i`` uses seed ``--first-seed + i`` and lasts ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric
the report gives the median, the quartiles (``statistics.quantiles(n=4)``),
the spread
``(Q3 - Q1) / median`` and the metric's bound from ``BENCHMARK.json``;
the raw (unadjusted) timings from the diagnostics are reported beside
the adjusted ones, so the effect of the host-speed adjustment stays
visible.  Runs are sequential: parallel runs would disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int):
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(command)}\n{done.stderr}")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    return result, diagnostics


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat a workload, report spreads")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, diagnostics = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "result": result, "diagnostics": diagnostics})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ), flush=True)
        rows = [(n, [r["result"]["metrics"][n]["value"] for r in runs])
                for n in runs[0]["result"]["metrics"]]
        raw_names = ("throughput_rps", "latency_p50_ms", "latency_tail_ms", "setup_s")
        rows += [(f"raw.{n}", [r["diagnostics"]["raw"][n] for r in runs]) for n in raw_names]
        rows.append(("probe.median_ms", [r["diagnostics"]["probe"]["median_ms"] for r in runs]))
        print(f"\n{workload}: {args.runs} runs, {seconds} s each")
        print(f"{'metric':24s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, values in rows:
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound:6.2f}" + (" !" if rel > bound / 3 else "")
            print(f"{name:24s} {median:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} {mark}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
