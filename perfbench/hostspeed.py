"""Host-speed probe and the adjustment of timings to a nominal host.

Shared machines slow down and speed up from one second to the next.  A
fixed calibration kernel -- a pure-Python loop plus a small numpy
product, the two kinds of work the program does -- is timed between
fixed chunks of benchmark work.  Each chunk's timings are scaled by
``NOMINAL_PROBE_S / probe``, where ``probe`` is the mean of the kernel
readings taken just before and just after the chunk, so a chunk that
ran while the host was slow is credited with the slowdown.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Kernel time on the reference host (2-core x86_64, Python 3.11,
#: OpenBLAS 0.3.31).  Adjusted timings read in reference-host seconds.
NOMINAL_PROBE_S = 0.028

#: Pause between the end of a chunk and the probe after it, so threads
#: the chunk left finishing their bookkeeping do not slow the probe.
SETTLE_S = 0.02

_MATRIX = np.arange(64 * 64, dtype=np.float32).reshape(64, 64) / 4096.0


def _kernel() -> float:
    acc = 0
    for i in range(200_000):
        acc += (i * 7) ^ (i >> 3)
    m = _MATRIX
    for _ in range(400):
        m = np.tanh(m @ _MATRIX)
    return acc + float(m[0, 0])


def probe_once() -> float:
    """Seconds one calibration kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class HostClock:
    """Times fixed chunks of work and adjusts them by the probe.

    :meth:`chunk` probes just before and just after the work, so the
    untimed checks between chunks never leak into a factor.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def probe(self) -> float:
        self.readings.append(probe_once())
        return self.readings[-1]

    def chunk(self, work: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``work``; return ``(its result, raw seconds, factor)``."""
        before = self.probe()
        start = time.perf_counter()
        result = work()
        raw = time.perf_counter() - start
        time.sleep(SETTLE_S)
        after = self.probe()
        return result, raw, NOMINAL_PROBE_S / ((before + after) / 2.0)

    def summary(self) -> Dict[str, float]:
        values = sorted(self.readings)
        q1, median, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        )
        return {
            "count": len(values),
            "median_ms": median * 1e3,
            "iqr_ms": (q3 - q1) * 1e3,
            "nominal_ms": NOMINAL_PROBE_S * 1e3,
        }


def host_record() -> Dict[str, object]:
    """nproc, the CPUs the run may use, interpreter, numpy and BLAS versions."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
