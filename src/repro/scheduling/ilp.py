"""Exact pipeline scheduling via integer linear programming.

This is the reproduction's stand-in for the paper's CPLEX-based exact
method (after the memory- and communication-aware formulation of Yin et
al., SEC'22 [21]).  Subject to the monotone dependency constraint
``stage(u) <= stage(v)`` for every edge, it optimizes

``lexicographic`` (default)
    Phase 1 minimizes the peak per-stage parameter bytes ``M*`` (the
    parameter-caching optimum Fig. 5 reports); phase 2 minimizes the
    hop-weighted activation bytes crossing stage boundaries subject to
    every stage staying within ``M* * (1 + peak_tolerance)``.  Memory
    comes first, communication breaks ties — the behaviour the paper
    ascribes to its exact baseline.

``weighted``
    Single solve of ``M + comm_weight * comm`` — kept as a cross-check
    against the pure-Python branch-and-bound solver, which implements
    the identical objective.

Two encodings are provided:

``step`` (default)
    Indicator ``x[i,k] = 1`` iff ``stage(i) <= k`` for ``k < n-1``.  The
    dependency constraint becomes the tight pairwise bound
    ``x[v,k] <= x[u,k]`` and stage memory is a difference of consecutive
    steps.  This is the classic SDC-style unary encoding and solves all
    twelve DNN graphs in seconds with HiGHS.

``assignment``
    One-hot ``y[i,k]``.  Kept as a cross-check; produces identical
    objectives on every tested instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InfeasibleScheduleError, SolverError
from repro.graphs.dag import ComputationalGraph
from repro.scheduling.schedule import (
    DEFAULT_COMM_WEIGHT,
    Schedule,
    ScheduleResult,
)
from repro.utils.timing import Timer

_OBJECTIVES = ("lexicographic", "weighted")
_FORMULATIONS = ("step", "assignment")


def _scipy():
    """Return ``(sparse, Bounds, LinearConstraint, milp)`` from scipy.

    scipy (HiGHS) is imported here, on first use, and nowhere else in the
    package: ``import repro``, the scheduling service and its decode
    workers never load it; only constructing an :class:`IlpScheduler`
    does.  Raises :class:`SolverError` when scipy is not installed.
    """
    try:
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:
        raise SolverError(
            "IlpScheduler requires scipy (HiGHS); install scipy or "
            "use BranchAndBoundScheduler / the heuristic schedulers"
        ) from exc
    return sparse, Bounds, LinearConstraint, milp


class IlpScheduler:
    """Exact memory-and-communication-aware pipeline scheduler.

    Parameters
    ----------
    objective:
        ``"lexicographic"`` (memory first, then communication; default)
        or ``"weighted"`` (single weighted solve).
    comm_weight:
        Communication weight for the ``weighted`` objective.
    peak_tolerance:
        Phase-2 slack above the phase-1 peak optimum (lexicographic
        mode); 0 enforces the exact memory optimum.
    formulation:
        ``"step"`` (default) or ``"assignment"``.
    time_limit:
        Per-solve wall-clock budget in seconds.
    mip_rel_gap:
        Relative MIP gap at which the solver may stop (0 = proven
        optimal).
    should_stop:
        Optional zero-argument callable polled between MILP solves (the
        anytime portfolio's cooperative-cancellation hook).  A running
        HiGHS solve cannot be interrupted (cap ``time_limit`` for that),
        but a cancellation between the two lexicographic phases returns
        the phase-1 schedule with status ``"interrupted"``, and a
        cancellation before any solve raises :class:`SolverError`.
    """

    method_name = "ilp"

    def __init__(
        self,
        objective: str = "lexicographic",
        comm_weight: float = DEFAULT_COMM_WEIGHT,
        peak_tolerance: float = 0.03,
        formulation: str = "step",
        time_limit: float = 300.0,
        mip_rel_gap: float = 0.0,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        _scipy()
        if objective not in _OBJECTIVES:
            raise SolverError(f"unknown ILP objective {objective!r}")
        if formulation not in _FORMULATIONS:
            raise SolverError(f"unknown ILP formulation {formulation!r}")
        if comm_weight < 0:
            raise SolverError("comm_weight must be non-negative")
        if peak_tolerance < 0:
            raise SolverError("peak_tolerance must be non-negative")
        self.objective = objective
        self.comm_weight = comm_weight
        self.peak_tolerance = peak_tolerance
        self.formulation = formulation
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self._should_stop = should_stop

    def _cancelled(self) -> bool:
        return self._should_stop is not None and self._should_stop()

    # ------------------------------------------------------------------
    def schedule(self, graph: ComputationalGraph, num_stages: int) -> ScheduleResult:
        """Solve the exact scheduling problem for ``graph`` on ``num_stages``."""
        if num_stages < 1:
            raise SolverError("num_stages must be at least 1")
        if self._cancelled():
            raise SolverError("ILP solve cancelled before the first phase")
        graph.assert_acyclic()
        with Timer() as timer:
            if num_stages == 1 or graph.num_nodes == 0:
                assignment = {n: 0 for n in graph.node_names}
                schedule = Schedule(graph, num_stages, assignment)
                status = "optimal"
                extras = {
                    "peak_optimum_bytes": schedule.peak_stage_param_bytes,
                    "peak_cap_bytes": schedule.peak_stage_param_bytes,
                    "comm_bytes": schedule.hop_weighted_comm_bytes(),
                }
            elif self.objective == "weighted":
                schedule, status = self._solve(
                    graph, num_stages, comm_weight=self.comm_weight, peak_cap=None
                )
                extras = {}
            else:
                schedule, status, extras = self._solve_lexicographic(
                    graph, num_stages
                )
        if self.objective == "lexicographic":
            objective_value = float(schedule.peak_stage_param_bytes)
        else:
            objective_value = schedule.objective(self.comm_weight)
        extras["formulation"] = self.formulation
        extras["objective_mode"] = self.objective
        return ScheduleResult(
            schedule=schedule,
            solve_time=timer.elapsed,
            method=self.method_name,
            objective=objective_value,
            status=status,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def _solve_lexicographic(
        self, graph: ComputationalGraph, num_stages: int
    ) -> Tuple[Schedule, str, Dict[str, object]]:
        # Phase 1: pure peak-memory optimum.
        phase1, status1 = self._solve(
            graph, num_stages, comm_weight=0.0, peak_cap=None
        )
        peak_optimum = phase1.peak_stage_param_bytes
        if self._cancelled():
            # Deadline hit between phases: the phase-1 schedule is the
            # exact peak-memory optimum, just not comm-tie-broken.
            return (
                phase1,
                "interrupted",
                {
                    "peak_optimum_bytes": peak_optimum,
                    "peak_cap_bytes": peak_optimum,
                    "comm_bytes": phase1.hop_weighted_comm_bytes(),
                    "stopped_early": True,
                },
            )
        # Phase 2: cheapest communication within the (padded) optimum.
        cap = int(peak_optimum * (1.0 + self.peak_tolerance))
        phase2, status2 = self._solve(
            graph, num_stages, comm_weight=1.0, peak_cap=cap, minimize_peak=False
        )
        status = status1 if status1 == status2 else f"{status1}/{status2}"
        extras: Dict[str, object] = {
            "peak_optimum_bytes": peak_optimum,
            "peak_cap_bytes": cap,
            "comm_bytes": phase2.hop_weighted_comm_bytes(),
        }
        return phase2, status, extras

    # ------------------------------------------------------------------
    def _solve(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        comm_weight: float,
        peak_cap: Optional[int],
        minimize_peak: bool = True,
    ) -> Tuple[Schedule, str]:
        if self.formulation == "step":
            builder = self._build_step
        else:
            builder = self._build_assignment
        cost, constraints, integrality, bounds, decode = builder(
            graph, num_stages, comm_weight, peak_cap, minimize_peak
        )
        result = self._run_milp(cost, constraints, integrality, bounds)
        assignment = decode(result.x)
        schedule = Schedule(graph, num_stages, assignment)
        return schedule, self._status_string(result)

    # ------------------------------------------------------------------
    # step encoding
    # ------------------------------------------------------------------
    def _build_step(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        comm_weight: float,
        peak_cap: Optional[int],
        minimize_peak: bool,
    ):
        names = graph.node_names
        index = {n: i for i, n in enumerate(names)}
        num_nodes = len(names)
        steps = num_stages - 1  # x[i,k] for k in [0, n-2]
        with_m = minimize_peak
        num_vars = (1 if with_m else 0) + num_nodes * steps

        offset = 1 if with_m else 0

        def var(i: int, k: int) -> int:
            return offset + i * steps + k

        mem = np.array([graph.node(n).param_bytes for n in names], dtype=float)
        total_mem = float(mem.sum())

        cost = np.zeros(num_vars)
        if with_m:
            cost[0] = 1.0
        if comm_weight:
            # comm = sum_(u,v) out_u * sum_k (x[u,k] - x[v,k]).
            for u, v in graph.edges():
                out_bytes = float(graph.node(u).output_bytes)
                for k in range(steps):
                    cost[var(index[u], k)] += comm_weight * out_bytes
                    cost[var(index[v], k)] -= comm_weight * out_bytes

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        row = 0

        def add_entry(r: int, c: int, v: float) -> None:
            rows.append(r)
            cols.append(c)
            vals.append(v)

        # Monotonicity: x[i,k] - x[i,k+1] <= 0.
        for i in range(num_nodes):
            for k in range(steps - 1):
                add_entry(row, var(i, k), 1.0)
                add_entry(row, var(i, k + 1), -1.0)
                lower.append(-np.inf)
                upper.append(0.0)
                row += 1

        # Dependency: x[v,k] - x[u,k] <= 0 for every edge (u, v).
        for u, v in graph.edges():
            for k in range(steps):
                add_entry(row, var(index[v], k), 1.0)
                add_entry(row, var(index[u], k), -1.0)
                lower.append(-np.inf)
                upper.append(0.0)
                row += 1

        # Stage memory <= M (or <= peak_cap when M is absent).
        cap = float(peak_cap) if peak_cap is not None else None

        def memory_row(entries, constant: float) -> None:
            nonlocal row
            for c, v in entries:
                add_entry(row, c, v)
            if with_m:
                add_entry(row, 0, -1.0)
                lower.append(-np.inf)
                upper.append(-constant)
            else:
                lower.append(-np.inf)
                upper.append(cap - constant)  # type: ignore[operand-type]
            row += 1

        # Stage 0: sum_i m_i x[i,0] (+0) <= M | cap.
        memory_row(
            [(var(i, 0), mem[i]) for i in range(num_nodes) if mem[i]], 0.0
        )
        # Stages 1..n-2: sum_i m_i (x[i,k] - x[i,k-1]) <= M | cap.
        for k in range(1, steps):
            entries = []
            for i in range(num_nodes):
                if mem[i]:
                    entries.append((var(i, k), mem[i]))
                    entries.append((var(i, k - 1), -mem[i]))
            memory_row(entries, 0.0)
        # Last stage: total - sum_i m_i x[i,n-2] <= M | cap.
        memory_row(
            [(var(i, steps - 1), -mem[i]) for i in range(num_nodes) if mem[i]],
            total_mem,
        )

        sparse, Bounds, LinearConstraint, _ = _scipy()
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(row, num_vars))
        constraints = LinearConstraint(matrix, np.array(lower), np.array(upper))
        integrality = np.ones(num_vars)
        lb = np.zeros(num_vars)
        ub = np.ones(num_vars)
        if with_m:
            integrality[0] = 0
            ub[0] = max(total_mem, 1.0)

        def decode(x: np.ndarray) -> Dict[str, int]:
            assignment: Dict[str, int] = {}
            for i, name in enumerate(names):
                stage_steps = sum(1 for k in range(steps) if x[var(i, k)] > 0.5)
                assignment[name] = num_stages - 1 - stage_steps
            return assignment

        return cost, constraints, integrality, Bounds(lb, ub), decode

    # ------------------------------------------------------------------
    # assignment (one-hot) encoding
    # ------------------------------------------------------------------
    def _build_assignment(
        self,
        graph: ComputationalGraph,
        num_stages: int,
        comm_weight: float,
        peak_cap: Optional[int],
        minimize_peak: bool,
    ):
        names = graph.node_names
        index = {n: i for i, n in enumerate(names)}
        num_nodes = len(names)
        with_m = minimize_peak
        offset = 1 if with_m else 0
        num_vars = offset + num_nodes * num_stages

        def var(i: int, k: int) -> int:
            return offset + i * num_stages + k

        mem = np.array([graph.node(n).param_bytes for n in names], dtype=float)
        total_mem = float(mem.sum())

        cost = np.zeros(num_vars)
        if with_m:
            cost[0] = 1.0
        if comm_weight:
            # stage(i) = sum_k k*y[i,k]; comm = sum out_u*(s(v)-s(u)).
            for u, v in graph.edges():
                out_bytes = float(graph.node(u).output_bytes)
                for k in range(num_stages):
                    cost[var(index[v], k)] += comm_weight * out_bytes * k
                    cost[var(index[u], k)] -= comm_weight * out_bytes * k

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        row = 0

        def add_entry(r: int, c: int, v: float) -> None:
            rows.append(r)
            cols.append(c)
            vals.append(v)

        # One stage per node.
        for i in range(num_nodes):
            for k in range(num_stages):
                add_entry(row, var(i, k), 1.0)
            lower.append(1.0)
            upper.append(1.0)
            row += 1

        # Dependency: sum_k k*(y[u,k] - y[v,k]) <= 0.
        for u, v in graph.edges():
            for k in range(1, num_stages):
                add_entry(row, var(index[u], k), float(k))
                add_entry(row, var(index[v], k), -float(k))
            lower.append(-np.inf)
            upper.append(0.0)
            row += 1

        # Stage memory.
        cap = float(peak_cap) if peak_cap is not None else None
        for k in range(num_stages):
            for i in range(num_nodes):
                if mem[i]:
                    add_entry(row, var(i, k), mem[i])
            if with_m:
                add_entry(row, 0, -1.0)
                lower.append(-np.inf)
                upper.append(0.0)
            else:
                lower.append(-np.inf)
                upper.append(cap)  # type: ignore[arg-type]
            row += 1

        sparse, Bounds, LinearConstraint, _ = _scipy()
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(row, num_vars))
        constraints = LinearConstraint(matrix, np.array(lower), np.array(upper))
        integrality = np.ones(num_vars)
        lb = np.zeros(num_vars)
        ub = np.ones(num_vars)
        if with_m:
            integrality[0] = 0
            ub[0] = max(total_mem, 1.0)

        def decode(x: np.ndarray) -> Dict[str, int]:
            assignment: Dict[str, int] = {}
            for i, name in enumerate(names):
                assignment[name] = int(
                    max(range(num_stages), key=lambda k: x[var(i, k)])
                )
            return assignment

        return cost, constraints, integrality, Bounds(lb, ub), decode

    # ------------------------------------------------------------------
    def _run_milp(self, cost, constraints, integrality, bounds):
        # HiGHS defaults to a 1e-4 relative gap; pin it so "optimal" means
        # proven optimal (the BnB cross-check relies on exact agreement).
        milp = _scipy()[3]
        options = {"time_limit": self.time_limit, "mip_rel_gap": self.mip_rel_gap}
        result = milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        if result.status == 2:
            raise InfeasibleScheduleError(
                "ILP reports the scheduling instance is infeasible"
            )
        if result.x is None:
            raise SolverError(
                f"MILP solver returned no solution (status={result.status}: "
                f"{result.message})"
            )
        return result

    @staticmethod
    def _status_string(result) -> str:
        return "optimal" if result.status == 0 else f"feasible(status={result.status})"
