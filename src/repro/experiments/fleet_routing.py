"""Experiment — routing-policy comparison over the standard fleet suite.

The first end-to-end composition of the whole stack: model zoo ->
:class:`~repro.service.SchedulingService`-backed schedules ->
heterogeneous :class:`~repro.cluster.Fleet` -> router policies ->
fleet discrete-event simulation -> per-tenant SLO attainment, latency
percentiles and per-request energy.  Every (scenario, fleet) pair from
:func:`repro.cluster.scenarios.standard_suite` is simulated once per
router under the same seed, so the routers face the *identical* request
trace and differ only in dispatch decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.fleet import Fleet, ReplicaSpec, build_fleet
from repro.cluster.report import FleetReport
from repro.cluster.router import Router, default_routers
from repro.cluster.scenarios import scenario_models, standard_suite
from repro.cluster.simulate import simulate_scenario
from repro.cluster.workload import Scenario
from repro.scheduling.heuristics import ListScheduler
from repro.service import SchedulingService
from repro.utils.tables import format_table


@dataclass
class FleetRoutingRow:
    """One (scenario, router) cell of the comparison."""

    scenario: str
    router: str
    requests: int
    completed: int
    rejected: int
    slo_attainment: float
    worst_tenant_attainment: float
    p99_latency_s: float
    throughput_per_s: float
    joules_per_completed: float
    max_replica_utilization: float
    schedule_reuse_hit_rate: float
    report: FleetReport


def _row(report: FleetReport) -> FleetRoutingRow:
    return FleetRoutingRow(
        scenario=report.scenario,
        router=report.router,
        requests=report.requests,
        completed=report.completed,
        rejected=report.rejected,
        slo_attainment=report.slo_attainment,
        worst_tenant_attainment=min(
            (t.slo_attainment for t in report.tenants), default=0.0
        ),
        p99_latency_s=max(
            (t.latency_p99_s for t in report.tenants), default=0.0
        ),
        throughput_per_s=report.throughput_per_s,
        joules_per_completed=report.joules_per_completed,
        max_replica_utilization=max(
            (r.utilization for r in report.replicas), default=0.0
        ),
        schedule_reuse_hit_rate=report.schedule_reuse_hit_rate,
        report=report,
    )


def run_fleet_routing(
    suite: Optional[Sequence[Tuple[Scenario, List[ReplicaSpec]]]] = None,
    routers: Optional[Sequence[Router]] = None,
    scheduler_factory=ListScheduler,
    seed: int = 0,
) -> List[FleetRoutingRow]:
    """Simulate every router over every (scenario, fleet) of the suite.

    One :class:`SchedulingService` (and therefore one fingerprint cache)
    is shared across *all* fleets, so replicas with equal stage counts —
    within and across fleets — reuse schedules; the per-row
    ``schedule_reuse_hit_rate`` quantifies it.
    """
    suite = list(suite) if suite is not None else standard_suite()
    routers = list(routers) if routers is not None else default_routers()
    rows: List[FleetRoutingRow] = []
    with SchedulingService(scheduler_factory()) as service:
        for scenario, replica_specs in suite:
            models = scenario_models(scenario)
            fleet = build_fleet(replica_specs, models, service=service)
            for router in routers:
                report = simulate_scenario(scenario, fleet, router, seed=seed)
                rows.append(_row(report))
    return rows


def format_fleet_routing(rows: Sequence[FleetRoutingRow]) -> str:
    """Render the comparison as the experiment's summary table."""
    return format_table(
        [
            "scenario",
            "router",
            "reqs",
            "done",
            "rej",
            "SLO%",
            "worst tenant%",
            "p99 (s)",
            "req/s",
            "J/req",
            "peak util",
            "sched reuse%",
        ],
        [
            [
                row.scenario,
                row.router,
                row.requests,
                row.completed,
                row.rejected,
                100.0 * row.slo_attainment,
                100.0 * row.worst_tenant_attainment,
                row.p99_latency_s,
                row.throughput_per_s,
                row.joules_per_completed,
                row.max_replica_utilization,
                100.0 * row.schedule_reuse_hit_rate,
            ]
            for row in rows
        ],
        title="Fleet routing-policy comparison",
    )
