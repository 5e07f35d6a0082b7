"""Centralized optimal solvers -- the "optimization solver" line of Figure 4.

The utility optimisation of Section 3 is, in arc-flow variables, a concave
maximisation over a polytope.  For each commodity ``j`` and each allowed
extended edge ``e`` let ``y[j, e]`` be the commodity flow *entering* ``e``
(in tail-node units, pre-processing).  Then:

* gain-aware conservation (eq. (7)) at every non-sink node ``i`` of ``G_j``:
  ``sum_{e out of i} y[j,e] - sum_{e into i} beta_e(j) y[j,e] = r_i(j)``,
  with ``r_i(j) = lambda_j`` at the dummy source;
* node capacity (eq. (6)): ``sum_j sum_{e out of i} c_e(j) y[j,e] <= C_i``;
* ``y >= 0``; the admitted rate is ``a_j = y[j, input edge of j]``;
* objective ``max sum_j U_j(a_j)``.

For linear utilities (the paper's Figure-4 throughput objective) this is an
LP solved exactly with ``scipy.optimize.linprog`` (HiGHS).  For general
concave utilities we run the in-house Frank-Wolfe solver
(:mod:`repro.solver.frankwolfe`), whose duality gap certifies optimality, and
cross-check against ``scipy.optimize.minimize(SLSQP)`` in the test suite.

The solvers here ignore the barrier penalty: they compute the *true* optimum
of the original problem, which upper-bounds what the penalised distributed
algorithm can reach (it converges to within a few percent for the paper's
``eps = 0.2``; see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.core.routing import RoutingState, initial_routing
from repro.core.solution import Solution
from repro.core.transform import ExtendedNetwork
from repro.core.utility import LinearUtility
from repro.exceptions import SolverError
from repro.solver.frankwolfe import Polytope, frank_wolfe

__all__ = [
    "ArcFlowProblem",
    "build_arc_flow_problem",
    "solve_lp",
    "solve_concave",
    "solve_optimal",
    "arc_flows_to_routing",
]


@dataclass
class ArcFlowProblem:
    """The arc-flow polytope of the utility optimisation.

    ``columns[(j, e)]`` maps commodity/edge pairs to variable columns;
    ``admitted_columns[j]`` is the column of commodity ``j``'s dummy input
    edge, whose value is the admitted rate ``a_j``.
    """

    ext: ExtendedNetwork
    columns: Dict[Tuple[int, int], int]
    admitted_columns: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def num_vars(self) -> int:
        return len(self.columns)

    def polytope(self) -> Polytope:
        return Polytope(
            a_eq=self.a_eq, b_eq=self.b_eq, a_ub=self.a_ub, b_ub=self.b_ub
        )

    def flows_by_edge(self, y: np.ndarray) -> np.ndarray:
        """Expand a variable vector into a dense ``(J, E)`` flow array."""
        flows = np.zeros((self.ext.num_commodities, self.ext.num_edges))
        for (j, e), col in self.columns.items():
            flows[j, e] = y[col]
        return flows


def build_arc_flow_problem(
    ext: ExtendedNetwork, capacity_scale: float = 1.0
) -> ArcFlowProblem:
    """Assemble conservation and capacity matrices over the extended graph.

    ``capacity_scale`` (in ``(0, 1]``) shrinks every finite node budget; used
    to compare against barrier solutions that keep headroom.
    """
    if not 0.0 < capacity_scale <= 1.0:
        raise SolverError(f"capacity_scale must be in (0, 1], got {capacity_scale}")

    columns: Dict[Tuple[int, int], int] = {}
    for view in ext.commodities:
        for e in view.edge_indices:
            columns[(view.index, e)] = len(columns)
    num_vars = len(columns)

    eq_rows: List[np.ndarray] = []
    eq_rhs: List[float] = []
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            row = np.zeros(num_vars)
            for e in ext.commodity_out_edges[j][node]:
                row[columns[(j, e)]] += 1.0
            for e in ext.in_edges[node]:
                if (j, e) in columns:
                    row[columns[(j, e)]] -= ext.gain[j, e]
            eq_rows.append(row)
            eq_rhs.append(view.max_rate if node == view.dummy else 0.0)

    ub_rows: List[np.ndarray] = []
    ub_rhs: List[float] = []
    for node_idx in range(ext.num_nodes):
        capacity = ext.capacity[node_idx]
        if not np.isfinite(capacity):
            continue
        row = np.zeros(num_vars)
        nonzero = False
        for e in ext.out_edges[node_idx]:
            for view in ext.commodities:
                key = (view.index, e)
                if key in columns:
                    row[columns[key]] += ext.cost[view.index, e]
                    nonzero = True
        if nonzero:
            ub_rows.append(row)
            ub_rhs.append(capacity * capacity_scale)

    admitted_columns = np.array(
        [columns[(view.index, view.input_edge)] for view in ext.commodities],
        dtype=int,
    )
    return ArcFlowProblem(
        ext=ext,
        columns=columns,
        admitted_columns=admitted_columns,
        a_eq=np.vstack(eq_rows),
        b_eq=np.array(eq_rhs),
        a_ub=np.vstack(ub_rows) if ub_rows else np.zeros((0, num_vars)),
        b_ub=np.array(ub_rhs),
    )


def _solution_from_flows(
    ext: ExtendedNetwork,
    problem: ArcFlowProblem,
    y: np.ndarray,
    method: str,
    iterations: Optional[int] = None,
) -> Solution:
    admitted = y[problem.admitted_columns].copy()
    admitted = np.minimum(admitted, ext.commodity_max_rates)
    utility = float(
        sum(
            view.utility.value(float(admitted[view.index]))
            for view in ext.commodities
        )
    )
    flows = problem.flows_by_edge(y)
    node_usage = np.zeros(ext.num_nodes)
    edge_usage = np.einsum("je,je->e", flows, ext.cost)
    np.add.at(node_usage, ext.edge_tail, edge_usage)
    return Solution(
        ext=ext,
        admitted=admitted,
        utility=utility,
        cost=float("nan"),
        method=method,
        routing=None,
        iterations=iterations,
        extras={"arc_flows": flows, "node_usage": node_usage, "edge_usage": edge_usage},
    )


def solve_lp(ext: ExtendedNetwork, capacity_scale: float = 1.0) -> Solution:
    """Exact optimum for *linear* utilities via HiGHS.

    Raises :class:`SolverError` if any commodity's utility is not linear --
    use :func:`solve_concave` (or the :func:`solve_optimal` dispatcher) then.
    """
    weights = []
    for view in ext.commodities:
        if not isinstance(view.utility, LinearUtility):
            raise SolverError(
                f"commodity {view.name!r} has non-linear utility "
                f"{view.utility!r}; use solve_concave"
            )
        weights.append(view.utility.weight)

    problem = build_arc_flow_problem(ext, capacity_scale)
    objective = np.zeros(problem.num_vars)
    for view, weight in zip(ext.commodities, weights):
        objective[problem.admitted_columns[view.index]] = -weight  # linprog minimises

    result = linprog(
        c=objective,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP solve failed: {result.message}")
    return _solution_from_flows(ext, problem, np.asarray(result.x), method="lp")


def solve_concave(
    ext: ExtendedNetwork,
    capacity_scale: float = 1.0,
    max_iterations: int = 800,
    gap_tolerance: float = 1e-7,
) -> Solution:
    """Optimum for general concave utilities via in-house Frank-Wolfe."""
    problem = build_arc_flow_problem(ext, capacity_scale)
    cols = problem.admitted_columns

    def value(y: np.ndarray) -> float:
        return float(
            sum(
                view.utility.value(float(max(y[cols[view.index]], 0.0)))
                for view in ext.commodities
            )
        )

    def gradient(y: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(y)
        for view in ext.commodities:
            a = float(max(y[cols[view.index]], 0.0))
            grad[cols[view.index]] = float(view.utility.derivative(a))
        return grad

    fw = frank_wolfe(
        value,
        gradient,
        problem.polytope(),
        max_iterations=max_iterations,
        gap_tolerance=gap_tolerance,
    )
    if not fw.converged and fw.gap_history and fw.gap_history[-1] > 1e-3 * max(
        1.0, abs(fw.value)
    ):
        raise SolverError(
            f"Frank-Wolfe did not converge: last gap {fw.gap_history[-1]:.3g}"
        )
    return _solution_from_flows(
        ext, problem, fw.x, method="frank-wolfe", iterations=fw.iterations
    )


def solve_optimal(ext: ExtendedNetwork, capacity_scale: float = 1.0) -> Solution:
    """Dispatch: exact LP when all utilities are linear, Frank-Wolfe otherwise."""
    if all(isinstance(v.utility, LinearUtility) for v in ext.commodities):
        return solve_lp(ext, capacity_scale)
    return solve_concave(ext, capacity_scale)


def arc_flows_to_routing(
    ext: ExtendedNetwork, flows: np.ndarray, flow_tol: float = 1e-9
) -> RoutingState:
    """Convert ``(J, E)`` arc flows into routing fractions ``phi``.

    At nodes carrying flow, ``phi`` splits proportionally to the outgoing arc
    flows; idle nodes inherit the shed-everything default so the result is
    always a valid routing decision.  Useful for warm-starting the gradient
    algorithm at (or near) the centralized optimum and for checking Theorem 2
    there.
    """
    routing = initial_routing(ext)
    phi = routing.phi
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            total = float(sum(flows[j, e] for e in out))
            if total > flow_tol:
                for e in out:
                    phi[j, e] = max(float(flows[j, e]), 0.0) / total
                phi[j, out] /= phi[j, out].sum()
    return routing
