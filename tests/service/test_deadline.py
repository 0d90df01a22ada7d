"""Deadline budgets and the degrade ladder through the serving stack."""

import time

import pytest

from repro.errors import ServiceError, SolverError
from repro.graphs.sampler import sample_synthetic_dag
from repro.obs import Telemetry
from repro.portfolio import AnytimePortfolio, DegradeLadder, PortfolioLane
from repro.scheduling.heuristics import ListScheduler
from repro.service import SchedulingService
from repro.tpu.quantize import quantize_graph

#: Single-core CI hosts schedule threads coarsely: "answered at the
#: deadline" is asserted within this much total wall clock.
GENEROUS_SLACK_S = 10.0


def _graph(seed=0, num_nodes=14):
    return quantize_graph(
        sample_synthetic_dag(num_nodes=num_nodes, degree=2, seed=seed)
    )


class _HangingScheduler:
    """A lane that spins until the race's stop flag fires."""

    def __init__(self, should_stop):
        self._should_stop = should_stop

    def schedule(self, graph, num_stages):
        while not self._should_stop():
            time.sleep(0.005)
        raise SolverError("hung lane cancelled")


def _racing_portfolio(deadline_ms=100.0, hang=False, telemetry=None):
    lanes = [PortfolioLane("list", lambda stop: ListScheduler())]
    if hang:
        lanes.append(PortfolioLane("hang", lambda stop: _HangingScheduler(stop)))
    return AnytimePortfolio(
        lanes=lanes, deadline_ms=deadline_ms, telemetry=telemetry
    )


class TestServiceDeadlines:
    def test_deadline_request_carries_provenance_and_counters(self):
        tel = Telemetry()
        service = SchedulingService(
            _racing_portfolio(deadline_ms=5_000.0), telemetry=tel
        )
        try:
            result = service.submit(_graph(), 3, deadline_ms=5_000.0).result()
            assert result.extras["service_deadline_ms"] == 5_000.0
            assert result.extras["winning_lane"] == "list"
            assert "service_deadline_hit" in result.extras
            text = tel.registry.render_prometheus()
            assert "respect_deadline_outcomes_total" in text
        finally:
            service.close()

    def test_non_positive_deadline_rejected(self):
        service = SchedulingService(ListScheduler())
        try:
            with pytest.raises(ServiceError):
                service.submit(_graph(), 3, deadline_ms=0.0)
        finally:
            service.close()

    def test_plain_requests_unaffected_by_deadline_support(self):
        service = SchedulingService(_racing_portfolio(deadline_ms=5_000.0))
        try:
            result = service.submit(_graph(), 3).result()
            assert result.extras.get("service_deadline_ms") is None
        finally:
            service.close()

    def test_incomplete_race_never_poisons_the_cache(self):
        # A hanging lane forces an incomplete (anytime) answer; the
        # service must re-solve the same request instead of caching it.
        service = SchedulingService(
            _racing_portfolio(deadline_ms=80.0, hang=True)
        )
        try:
            graph = _graph(seed=1)
            first = service.submit(graph, 3, deadline_ms=80.0).result()
            assert first.extras["anytime_complete"] is False
            second = service.submit(graph, 3, deadline_ms=80.0).result()
            assert second.extras["cache_hit"] is False
        finally:
            service.close()

    def test_complete_race_is_cached(self):
        service = SchedulingService(_racing_portfolio(deadline_ms=10_000.0))
        try:
            graph = _graph(seed=2)
            first = service.submit(graph, 3, deadline_ms=10_000.0).result()
            assert first.extras["anytime_complete"] is True
            second = service.submit(graph, 3, deadline_ms=10_000.0).result()
            assert second.extras["cache_hit"] is True
        finally:
            service.close()

    def test_hanging_lane_fault_injection_answers_in_time(self):
        service = SchedulingService(
            _racing_portfolio(deadline_ms=100.0, hang=True)
        )
        try:
            start = time.perf_counter()
            result = service.submit(_graph(seed=3), 3, deadline_ms=100.0).result(
                timeout=GENEROUS_SLACK_S
            )
            elapsed = time.perf_counter() - start
            assert elapsed < GENEROUS_SLACK_S
            assert result.extras["winning_lane"] == "list"
            assert result.schedule.is_valid()
        finally:
            service.close()


class TestShardedDegradeLadder:
    def _saturated_tier(self, ladder):
        # max_queue_depth=1 with a deliberately slow scheduler makes the
        # second distinct submission hit the degrade path.
        class Slow:
            def schedule(self, graph, num_stages):
                time.sleep(0.25)
                return ListScheduler().schedule(graph, num_stages)

        return SchedulingService(
            scheduler=Slow(),
            num_shards=1,
            max_queue_depth=1,
            admission="degrade",
            portfolio=ladder,
        )

    def test_degraded_serve_records_rung_and_counter(self):
        ladder = DegradeLadder()
        tier = self._saturated_tier(ladder)
        try:
            futures = [tier.submit(_graph(seed=s), 3) for s in range(4)]
            results = [f.result(timeout=30.0) for f in futures]
            degraded = [r for r in results if r.extras.get("degraded")]
            assert degraded, "saturation must have degraded some requests"
            for result in degraded:
                assert result.extras["degrade_rung"] in (
                    "policy",
                    "heuristic",
                    "cached_nearest",
                    "floor",
                )
            text = tier.telemetry.registry.render_prometheus()
            rung_lines = [
                line
                for line in text.splitlines()
                if line.startswith("respect_degrade_rung_total")
                and not line.endswith(" 0")
            ]
            assert rung_lines, text
        finally:
            tier.close()

    def test_no_ladder_records_floor_rung(self):
        tier = self._saturated_tier(None)
        try:
            futures = [tier.submit(_graph(seed=s), 3) for s in range(4)]
            results = [f.result(timeout=30.0) for f in futures]
            degraded = [r for r in results if r.extras.get("degraded")]
            assert degraded
            assert all(r.extras["degrade_rung"] == "floor" for r in degraded)
            registry = tier.telemetry.registry
            assert (
                registry.counter_total("respect_degrade_rung_total", rung="floor")
                == len(degraded)
                == registry.counter_total("respect_degrade_rung_total")
            )
            assert 'rung="fallback"' not in registry.render_prometheus()
        finally:
            tier.close()

    def test_portfolio_requires_serve_contract(self):
        with pytest.raises(ServiceError, match="serve"):
            SchedulingService(
                scheduler=ListScheduler(),
                num_shards=1,
                admission="degrade",
                portfolio=object(),
            )

    def test_full_quality_serves_warm_the_structural_index(self):
        ladder = DegradeLadder()
        tier = SchedulingService(
            scheduler=ListScheduler(),
            num_shards=1,
            admission="degrade",
            portfolio=ladder,
        )
        try:
            tier.submit(_graph(seed=9), 3).result(timeout=30.0)
            assert len(ladder.index) == 1
        finally:
            tier.close()

    def test_deadline_forwarded_through_the_front_tier(self):
        tier = SchedulingService(
            scheduler=_racing_portfolio(deadline_ms=5_000.0), num_shards=1
        )
        try:
            result = tier.submit(_graph(), 3, deadline_ms=5_000.0).result(
                timeout=30.0
            )
            assert result.extras["service_deadline_ms"] == 5_000.0
        finally:
            tier.close()
