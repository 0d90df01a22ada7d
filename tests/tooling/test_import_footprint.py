"""Heavy optional imports stay off the package and worker paths.

scipy is a first-use dependency of ``IlpScheduler`` only:
``repro.scheduling.ilp`` imports scipy (HiGHS) inside the solver, not at
module level.  asyncio (with ssl) is a first-use dependency of
``asubmit`` only.  So the package, the scheduling service and the
decode worker's whole in-process path run without loading either.
Each case runs in a fresh interpreter: ``sys.modules`` of the pytest
process already holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Builds the canonical diamond (a -> {b, c} -> d) of ``tests/conftest.py``.
DIAMOND = """
from repro.graphs.dag import ComputationalGraph
diamond = ComputationalGraph(name="diamond")
diamond.add_op("a", op_type="input", output_bytes=100)
diamond.add_op("b", op_type="conv2d", param_bytes=400, output_bytes=200,
               macs=1000, inputs=["a"])
diamond.add_op("c", op_type="conv2d", param_bytes=600, output_bytes=300,
               macs=2000, inputs=["a"])
diamond.add_op("d", op_type="add", output_bytes=200, inputs=["b", "c"])
"""


def run_fresh(code):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestScipyStaysUnloaded:
    """Neither scipy nor asyncio loads before its first use."""

    def test_package_service_and_zoo_imports(self):
        out = run_fresh(
            """
            import json, sys
            import repro, repro.service, repro.models.zoo
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.split(".")[0] in ("scipy", "asyncio"))))
            """
        )
        assert out == []

    def test_worker_decode_path(self):
        out = run_fresh(
            """
            import json, sys
            from repro.graphs.sampler import sample_synthetic_dag
            from repro.rl.respect import RespectScheduler
            from repro.service import DecodeWorkerPool, wire
            from repro.service.workers import _WorkerDecoder

            respect = RespectScheduler()
            graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=0)
            with DecodeWorkerPool(1) as pool:
                epoch = pool.publish_scheduler(respect)
                decoder = _WorkerDecoder.load(pool._weights_dir, epoch)
                response = wire.decode_decode_response(decoder.decode(
                    wire.encode_decode_request(
                        [graph],
                        options_key=respect.options_fingerprint(),
                        embedding_config=respect.embedding_config,
                    )
                ))
            print(json.dumps({
                "scipy": "scipy" in sys.modules,
                "asyncio": "asyncio" in sys.modules,
                "same_order": response.orders == respect.decode_orders([graph]),
            }))
            """
        )
        assert out == {"scipy": False, "asyncio": False, "same_order": True}

    def test_ilp_solve_loads_scipy(self):
        out = run_fresh(
            DIAMOND
            + """
import json, sys
from repro.scheduling.ilp import IlpScheduler
before = "scipy" in sys.modules
result = IlpScheduler(peak_tolerance=0.0).schedule(diamond, 2)
print(json.dumps({
    "before": before,
    "after": "scipy" in sys.modules,
    "status": result.status,
    "peak": result.extras["peak_optimum_bytes"],
}))
"""
        )
        assert out == {
            "before": False,
            "after": True,
            "status": "optimal",
            "peak": 600,
        }


class TestAsyncioOnFirstUse:
    def test_asubmit_answers(self):
        out = run_fresh(
            """
            import json, sys
            from repro.graphs.sampler import sample_synthetic_dag
            from repro.rl.respect import RespectScheduler
            from repro.service import SchedulingService

            respect = RespectScheduler()
            graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=0)
            with SchedulingService(respect) as service:
                before = "asyncio" in sys.modules
                import asyncio
                served = asyncio.run(service.asubmit(graph, 4))
            direct = respect.schedule(graph, 4)
            print(json.dumps({
                "before": before,
                "same_schedule": (
                    served.schedule.assignment == direct.schedule.assignment
                ),
            }))
            """
        )
        assert out == {"before": False, "same_schedule": True}


class TestWithoutScipy:
    """What a numpy-only install gets: everything but the exact solver."""

    def test_package_works_and_ilp_refuses_at_construction(self):
        out = run_fresh(
            """
            import json, sys
            sys.modules["scipy"] = None  # any scipy import now fails
            import repro, repro.service
            from repro.errors import SolverError
            from repro.graphs.sampler import sample_synthetic_dag
            from repro.rl.respect import RespectScheduler
            from repro.scheduling.ilp import IlpScheduler

            graph = sample_synthetic_dag(num_nodes=12, degree=3, seed=0)
            result = RespectScheduler().schedule(graph, 4)
            try:
                IlpScheduler()
            except SolverError as exc:
                error = str(exc)
            else:
                error = None
            print(json.dumps({
                "respect_valid": result.schedule.is_valid(),
                "stages": sorted(set(result.schedule.assignment.values())),
                "ilp_error": error,
            }))
            """
        )
        assert out["respect_valid"] is True
        assert out["stages"] and max(out["stages"]) < 4
        assert out["ilp_error"] is not None
        assert "requires scipy" in out["ilp_error"]
