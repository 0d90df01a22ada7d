"""Per-method service stats exposed from serve_methods results."""

import pytest

from repro.errors import SchedulingError
from repro.flow.compare import (
    compare_methods,
    default_methods,
    serve_methods,
    served_method_stats,
)
from repro.graphs.sampler import sample_synthetic_dag
from repro.scheduling.heuristics import ListScheduler
from repro.tpu.quantize import quantize_graph


@pytest.fixture
def graph():
    return quantize_graph(sample_synthetic_dag(num_nodes=12, degree=2, seed=0))


def test_stats_report_cache_reuse_across_comparisons(graph):
    methods = serve_methods({"list": ListScheduler})
    compare_methods(graph, methods, num_stages=2)
    compare_methods(graph, methods, num_stages=2)
    stats = served_method_stats(methods)
    assert set(stats) == {"list"}
    listed = stats["list"]
    assert listed.method == "list"
    assert listed.services == 2  # one service per compare_methods call
    assert listed.requests == 2
    assert listed.cache_hits == 1  # second call hits the shared cache
    assert listed.hit_rate == pytest.approx(0.5)
    assert listed.scheduled_graphs == 1
    assert listed.batches == 1
    assert listed.mean_batch_size == pytest.approx(1.0)


def test_stats_before_any_request_are_zeroed():
    methods = serve_methods({"list": ListScheduler})
    stats = served_method_stats(methods)["list"]
    assert stats.services == 0
    assert stats.requests == 0
    assert stats.hit_rate == 0.0
    assert stats.mean_batch_size == 0.0


def test_unserved_methods_are_rejected(graph):
    with pytest.raises(SchedulingError):
        served_method_stats(default_methods())


def test_abandoned_services_fold_without_retention(graph):
    # Factories keep no reference to the services they create: each one
    # records into the method's registry under its own generation
    # label, so stats stay exact over arbitrarily many calls while no
    # service object is retained by the method dict.
    import gc

    methods = serve_methods({"list": ListScheduler})
    rounds = 7
    for _ in range(rounds):
        compare_methods(graph, methods, num_stages=2)
    gc.collect()  # abandoned services hold none of the counts
    stats = served_method_stats(methods)["list"]
    assert stats.services == rounds
    assert stats.requests == rounds
    assert stats.cache_hits == rounds - 1
    assert stats.scheduled_graphs == 1


class _CountingList:
    """ListScheduler with a fixed options key and a shared solve counter."""

    method_name = "list_scheduling"
    solves = 0

    def options_fingerprint(self):
        return "counting-list-v1"

    def schedule(self, graph, num_stages):
        type(self).solves += 1
        return ListScheduler().schedule(graph, num_stages)


@pytest.mark.parametrize("num_shards", [1, 2])
def test_store_dir_namespaces_and_warm_start(tmp_path, num_shards):
    from repro.service import DiskScheduleStore

    graphs = [
        quantize_graph(sample_synthetic_dag(num_nodes=12, degree=2, seed=s))
        for s in range(4)
    ]
    _CountingList.solves = 0
    methods = serve_methods(
        {"list": _CountingList}, store_dir=str(tmp_path), num_shards=num_shards
    )
    expected = {}
    with methods["list"]() as service:
        cold = [service.schedule(g, 2) for g in graphs]
        for graph in graphs:
            namespace = (
                f"list/shard-{service.shard_index(graph)}"
                if num_shards > 1
                else "list"
            )
            expected[namespace] = expected.get(namespace, 0) + 1
    methods["list"].schedule_store.close()
    assert _CountingList.solves == len(graphs)
    with DiskScheduleStore(tmp_path) as store:
        assert {ns: store.count(ns) for ns in store.namespaces()} == expected

    # A later serve_methods over the same directory solves nothing.
    methods = serve_methods(
        {"list": _CountingList}, store_dir=str(tmp_path), num_shards=num_shards
    )
    with methods["list"]() as service:
        warm = [service.schedule(g, 2) for g in graphs]
    methods["list"].schedule_store.close()
    assert _CountingList.solves == len(graphs)
    for before, after in zip(cold, warm):
        assert before.schedule.assignment == after.schedule.assignment
