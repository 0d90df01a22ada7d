"""The benchmark's own tests: determinism, clean exit, the missing-program exit.

Run explicitly (the file name keeps it out of the plain test suite,
because each case runs the benchmark end to end)::

    python3 -m pytest perfbench/determinism_check.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def session_processes(session: int):
    """Pids (zombies included) still in ``session``."""
    out = []
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and os.getsid(int(entry)) == session:
                out.append(int(entry))
        except OSError:
            pass  # ended while listing
    return out


def result_and_diagnostics(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


@pytest.mark.parametrize("workload", ["serve_hot", "serve_cold"])
def test_same_seed_gives_same_deterministic_outputs(workload):
    first, first_diag = result_and_diagnostics(run(workload, 7))
    second, second_diag = result_and_diagnostics(run(workload, 7))
    assert first["correct"] and second["correct"]
    for name in ("schedule_speedup", "answered_ratio"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    if workload == "serve_hot":
        for tier in ("service.tier_memory", "service.tier_disk", "service.tier_miss"):
            assert first_diag["counts"][tier] == second_diag["counts"][tier]


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_no_process_outlives_a_run():
    # serve_workers starts the most processes: a decode worker, the
    # resource tracker and the import-timing interpreters.
    command = [sys.executable, str(HERE / "run.py"), "--workload", "serve_workers",
               "--seed", "3", "--seconds", "1", "--trace", "0"]
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert child.wait(timeout=300) == 0
    assert session_processes(child.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("serve_cold", 1, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
