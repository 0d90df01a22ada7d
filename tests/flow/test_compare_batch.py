"""End-to-end tests for batched comparisons: per-graph stage counts and
the service-routed method dicts."""

import pytest

from repro.flow.compare import (
    compare_methods_over_models,
    run_method_batch,
    schedule_many,
    serve_methods,
)
from repro.graphs.sampler import sample_synthetic_dag
from repro.errors import SchedulingError
from repro.scheduling.compiler_proxy import EdgeTpuCompilerProxy
from repro.scheduling.schedule import Schedule, ScheduleResult
from repro.tpu.quantize import quantize_graph


@pytest.fixture
def quantized_graphs():
    return [
        quantize_graph(sample_synthetic_dag(num_nodes=10, degree=3, seed=seed))
        for seed in range(4)
    ]


class RecordingBatchScheduler:
    """Fake batched scheduler that records the stage counts it received."""

    method_name = "recording"

    def __init__(self):
        self.received = None

    def schedule(self, graph, num_stages):
        assignment = {
            name: min(i, num_stages - 1)
            for i, name in enumerate(graph.node_names)
        }
        return ScheduleResult(
            Schedule(graph, num_stages, assignment), 0.0, self.method_name
        )

    def schedule_batch(self, graphs, stage_counts):
        self.received = list(stage_counts)
        return [self.schedule(g, s) for g, s in zip(graphs, stage_counts)]


class TestPerGraphStageCounts:
    def test_schedule_many_forwards_per_graph_counts(self, quantized_graphs):
        scheduler = RecordingBatchScheduler()
        counts = [2, 3, 4, 2]
        results = schedule_many(scheduler, quantized_graphs, counts)
        assert scheduler.received == counts
        for result, stages in zip(results, counts):
            assert result.schedule.num_stages == stages

    def test_run_method_batch_records_per_outcome_int(self, quantized_graphs):
        counts = [2, 3, 4, 2]
        outcomes = run_method_batch(
            quantized_graphs,
            RecordingBatchScheduler(),
            counts,
            num_inferences=5,
        )
        for outcome, stages in zip(outcomes, counts):
            # Regression: every outcome used to carry the whole sequence.
            assert isinstance(outcome.num_stages, int)
            assert outcome.num_stages == stages
            assert outcome.schedule_result.schedule.num_stages == stages
            assert len(outcome.report.stage_busy_seconds) == stages

    def test_run_method_batch_shared_int_unchanged(self, quantized_graphs):
        outcomes = run_method_batch(
            quantized_graphs,
            RecordingBatchScheduler(),
            3,
            num_inferences=5,
        )
        assert [o.num_stages for o in outcomes] == [3] * len(quantized_graphs)

    def test_mismatched_counts_rejected(self, quantized_graphs):
        with pytest.raises(SchedulingError):
            run_method_batch(
                quantized_graphs, RecordingBatchScheduler(), [2, 3],
                num_inferences=5,
            )

    def test_compare_over_models_per_graph_counts(self, quantized_graphs):
        counts = [2, 2, 3, 4]
        per_graph = compare_methods_over_models(
            quantized_graphs,
            {"proxy": EdgeTpuCompilerProxy},
            counts,
            num_inferences=5,
        )
        assert [cell["proxy"].num_stages for cell in per_graph] == counts


class TestServedMethods:
    def test_serve_methods_matches_unserved(self, quantized_graphs):
        direct = compare_methods_over_models(
            quantized_graphs,
            {"proxy": EdgeTpuCompilerProxy},
            3,
            num_inferences=5,
        )
        served = compare_methods_over_models(
            quantized_graphs,
            serve_methods({"proxy": EdgeTpuCompilerProxy}),
            3,
            num_inferences=5,
        )
        for direct_cell, served_cell in zip(direct, served):
            assert (
                served_cell["proxy"].schedule_result.schedule.assignment
                == direct_cell["proxy"].schedule_result.schedule.assignment
            )
            assert served_cell["proxy"].num_stages == 3

    def test_serve_methods_shares_cache_across_calls(self, quantized_graphs):
        methods = serve_methods({"proxy": EdgeTpuCompilerProxy})
        first = compare_methods_over_models(
            quantized_graphs, methods, 3, num_inferences=5
        )
        second = compare_methods_over_models(
            quantized_graphs, methods, 3, num_inferences=5
        )
        for a, b in zip(first, second):
            assert (
                a["proxy"].schedule_result.schedule.assignment
                == b["proxy"].schedule_result.schedule.assignment
            )
        # The second sweep was served from the method's shared cache.
        probe = methods["proxy"]()
        try:
            assert probe.stats().cache.hits >= len(quantized_graphs)
        finally:
            probe.close()

    def test_serve_methods_caches_repeats(self, quantized_graphs):
        methods = serve_methods({"recording": RecordingBatchScheduler})
        factory = methods["recording"]
        service = factory()
        try:
            repeated = quantized_graphs + quantized_graphs
            outcomes = run_method_batch(
                repeated, service, 3, num_inferences=5
            )
            assert len(outcomes) == len(repeated)
            stats = service.stats()
            assert stats.cache_hits + stats.coalesced >= len(quantized_graphs)
            assert stats.scheduled_graphs <= len(quantized_graphs)
        finally:
            service.close()
