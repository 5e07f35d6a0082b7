"""Solution objects returned by all solvers and algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.marginals import CostModel, evaluate_cost
from repro.core.routing import (
    FeasibilityReport,
    RoutingState,
    feasibility_report,
    physical_link_flows,
    resource_usage,
    solve_traffic,
)
from repro.core.transform import ExtendedNetwork

__all__ = ["Solution", "build_solution"]


@dataclass
class Solution:
    """A complete answer to the joint admission/routing/allocation problem.

    Attributes
    ----------
    admitted:
        ``a_j`` per commodity (same order as ``ext.commodities``).
    utility:
        ``sum_j U_j(a_j)`` -- the paper's objective.
    cost:
        The penalised objective ``A = Y + eps * D`` (only meaningful for
        penalty-based methods; ``nan`` for the exact LP optimum).
    routing:
        The routing fractions realising the solution (``None`` for
        arc-flow-based centralized solutions that skip the phi form).
    method:
        Human-readable provenance ("gradient", "lp", "backpressure", ...).
    iterations:
        Iteration count for iterative methods.
    """

    ext: ExtendedNetwork
    admitted: np.ndarray
    utility: float
    cost: float
    method: str
    routing: Optional[RoutingState] = None
    iterations: Optional[int] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def admitted_by_name(self) -> Dict[str, float]:
        return {
            view.name: float(self.admitted[view.index])
            for view in self.ext.commodities
        }

    @property
    def shed_by_name(self) -> Dict[str, float]:
        return {
            view.name: float(view.max_rate - self.admitted[view.index])
            for view in self.ext.commodities
        }

    def feasibility(self) -> Optional[FeasibilityReport]:
        if self.routing is None:
            return None
        return feasibility_report(self.ext, self.routing)

    def link_flows(self) -> Dict[Tuple[str, str], float]:
        """Data rate on each used physical link (empty if no routing stored)."""
        if self.routing is None:
            return {}
        return physical_link_flows(self.ext, self.routing)

    def summary(self) -> str:
        lines = [
            f"Solution via {self.method}"
            + (f" ({self.iterations} iterations)" if self.iterations else ""),
            f"  total utility: {self.utility:.6g}",
        ]
        for view in self.ext.commodities:
            a = float(self.admitted[view.index])
            lines.append(
                f"  {view.name}: admitted {a:.4g} / offered {view.max_rate:.4g} "
                f"({100.0 * a / view.max_rate:.1f}%)"
            )
        report = self.feasibility()
        if report is not None:
            lines.append(
                f"  max node utilization: {report.max_utilization:.3f}"
                + ("" if report.feasible else "  [INFEASIBLE]")
            )
        return "\n".join(lines)


def build_solution(
    ext: ExtendedNetwork,
    routing: RoutingState,
    cost_model: CostModel,
    method: str,
    iterations: Optional[int] = None,
    extras: Optional[Dict[str, object]] = None,
    traffic: Optional[np.ndarray] = None,
    usage: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Solution:
    """Assemble a :class:`Solution` from a routing state.

    ``traffic`` and ``usage`` (an ``(edge_usage, node_usage)`` pair) accept
    the flow-balance solution of ``routing`` and its resource usage when
    the caller already holds them (e.g. from an :class:`~repro.core.context.
    IterationContext`), avoiding a redundant flow solve and usage pass.
    """
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    if usage is None:
        usage = resource_usage(ext, routing, traffic)
    # keep usage handy for analysis without recomputation
    edge_usage, node_usage = usage
    breakdown = evaluate_cost(ext, routing, cost_model, traffic, usage=usage)
    merged: Dict[str, object] = {
        "edge_usage": edge_usage,
        "node_usage": node_usage,
        "traffic": traffic,
        "utility_loss": breakdown.utility_loss,
        "penalty": breakdown.penalty,
    }
    if extras:
        merged.update(extras)
    return Solution(
        ext=ext,
        admitted=breakdown.admitted,
        utility=breakdown.utility,
        cost=breakdown.total,
        method=method,
        routing=routing,
        iterations=iterations,
        extras=merged,
    )
