"""Benchmark E2/E7 — regenerate Fig. 3 (schedule solving-time speedups).

Measures RESPECT / compiler-proxy / ILP solving wall-clock across the ten
Table I models and 4/5/6-stage pipelines, printing the per-model series
and the headline min/max/geomean speedups the paper quotes (24-683x over
the compiler, 100-930x over the ILP; see ``repro.experiments.fig3`` for
why the compiler column is closer here).
"""

from repro.experiments.fig3 import format_fig3, run_fig3
from repro.models import build_model
from repro.tpu.quantize import quantize_graph
from repro.utils.stats import geometric_mean


def test_fig3_solving_time(benchmark, emit, respect_scheduler):
    rows = benchmark.pedantic(
        run_fig3, kwargs={"respect": respect_scheduler}, rounds=1, iterations=1
    )
    emit(
        "fig3_solving_time",
        format_fig3(rows),
        metrics={
            "geomean_speedup_over_compiler": geometric_mean(
                [row.speedup_over_compiler for row in rows]
            ),
            "geomean_speedup_over_ilp": geometric_mean(
                [row.speedup_over_ilp for row in rows]
            ),
            "cells": len(rows),
        },
    )
    assert len(rows) == 10 * 3
    # The paper's ordering claims: RESPECT solves faster than the ILP on
    # every configuration, and faster than the profiling compiler flow
    # overall (single cells can tie or flip under machine noise — the
    # compiler's profiling search terminates early on heavy-streaming
    # models where boundary moves cannot help).
    assert all(row.speedup_over_ilp > 1.0 for row in rows)
    compiler_speedups = [row.speedup_over_compiler for row in rows]
    assert geometric_mean(compiler_speedups) > 1.0
    faster = sum(s > 1.0 for s in compiler_speedups)
    assert faster >= len(rows) * 0.5


def test_respect_inference_latency(benchmark, respect_scheduler):
    """Solving time of one RESPECT inference on the largest model."""
    graph = quantize_graph(build_model("DenseNet201"))
    result = benchmark(respect_scheduler.schedule, graph, 6)
    assert result.schedule.is_valid()
