"""Cost model and marginal-cost computations (paper eqs. (8)-(13)).

The transformed objective (Section 3) is ``A = Y + eps * D``:

* ``Y`` -- total utility loss over the dummy difference links, eq. (1);
* ``D`` -- total barrier penalty of node resource usage;
* ``eps`` -- the tunable penalty coefficient (0.2 in the paper's Figure 4).

This module evaluates ``A`` and the three derivative objects the distributed
algorithm needs:

* ``dA_i/df_ik``     -- eq. (11), via :func:`link_cost_derivative`;
* ``dA/dr_i(j)``     -- eq. (9),  via :func:`all_marginal_costs` (the
  engine's reverse wave) and :func:`marginal_cost_to_destination_scalar`
  (the per-commodity scalar reference it is pinned bit-identical against);
* ``dA/dphi_ik(j)``  -- eq. (10), via :func:`phi_gradient`;

plus the optimality residuals of Theorem 2 (eqs. (12), (13)), which tests and
benchmarks use to certify convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.penalty import InverseBarrier, PenaltyFunction
from repro.core.routing import (
    RoutingState,
    admitted_rates,
    resource_usage,
    solve_traffic,
)
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork

__all__ = [
    "CostModel",
    "CostBreakdown",
    "evaluate_cost",
    "link_cost_derivative",
    "marginal_cost_to_destination_scalar",
    "all_marginal_costs",
    "edge_marginals",
    "all_edge_marginals",
    "phi_gradient",
    "OptimalityReport",
    "optimality_residual",
]


@dataclass
class CostModel:
    """The penalised objective ``A = Y + eps * D`` of Section 3.

    Parameters
    ----------
    penalty:
        Per-node convex penalty ``D_i``; the paper's canonical choice
        ``1/(C - z)`` is the default.
    eps:
        Penalty coefficient ``eps`` (Figure 4 uses 0.2).
    """

    penalty: PenaltyFunction = field(default_factory=InverseBarrier)
    eps: float = 0.2


@dataclass
class CostBreakdown:
    """Evaluated objective components for one routing state."""

    utility_loss: float  # Y: total utility loss over difference links
    penalty: float  # D: total (unscaled) barrier penalty
    total: float  # A = Y + eps * D
    utility: float  # sum_j U_j(a_j), the quantity the paper plots
    admitted: np.ndarray  # a_j per commodity
    shed: np.ndarray  # lambda_j - a_j per commodity


def evaluate_cost(
    ext: ExtendedNetwork,
    routing: RoutingState,
    cost_model: CostModel,
    traffic: Optional[np.ndarray] = None,
    usage: Optional[tuple] = None,
) -> CostBreakdown:
    """Evaluate ``A``, its components, and the achieved utility.

    ``traffic`` and ``usage`` (an ``(edge_usage, node_usage)`` pair) accept
    precomputed values so callers holding an
    :class:`repro.core.context.IterationContext` never re-solve the flow
    balance.
    """
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    if usage is None:
        usage = resource_usage(ext, routing, traffic)
    edge_usage, node_usage = usage
    admitted = admitted_rates(ext, routing, traffic)

    # Y is a function of the *difference-link usage* (eq. (8)): at a valid
    # routing this equals lambda_j - a_j, but keeping the dependence on the
    # actual link flow makes A a differentiable function of each phi
    # coordinate independently, which eqs. (9)-(11) (and the
    # finite-difference tests) rely on.
    max_rates = ext.commodity_max_rates
    clipped = np.minimum(np.maximum(admitted, 0.0), max_rates)
    shed = max_rates - clipped
    shed_flows = edge_usage[ext.commodity_difference_edges]
    # U_j(lambda_j) never changes; cache it on the network
    utility_at_max = getattr(ext, "_utility_at_max", None)
    if utility_at_max is None:
        utility_at_max = np.array(
            [float(v.utility.value(v.max_rate)) for v in ext.commodities]
        )
        ext._utility_at_max = utility_at_max
    utility_loss = 0.0
    utility = 0.0
    weights = _linear_utility_weights(ext)
    if weights is not None:
        # throughput utilities (the paper's default): U_j(a) = w_j * a.  The
        # elementwise products equal the per-commodity scalar calls bit for
        # bit; the Python accumulation below keeps the same summation order.
        u_vals = weights * clipped
        l_vals = weights * np.maximum(max_rates - shed_flows, 0.0)
        for j in range(ext.num_commodities):
            utility += float(u_vals[j])
            utility_loss += utility_at_max[j] - float(l_vals[j])
    else:
        for view in ext.commodities:
            j = view.index
            utility += float(view.utility.value(clipped[j]))
            utility_loss += utility_at_max[j] - float(
                view.utility.value(max(max_rates[j] - shed_flows[j], 0.0))
            )

    penalty = float(np.sum(cost_model.penalty.value(node_usage, ext.capacity)))
    total = utility_loss + cost_model.eps * penalty
    return CostBreakdown(utility_loss, penalty, total, utility, admitted, shed)


def _linear_utility_weights(ext: ExtendedNetwork):
    """``(J,)`` weights if every commodity's utility is a plain
    :class:`~repro.core.utility.LinearUtility`, else ``None`` (cached).

    Linear utilities let the hot cost/derivative paths replace per-commodity
    scalar calls with one elementwise product -- bit-identical because the
    scalar calls compute exactly ``weight * a`` (and a constant derivative).
    """
    weights = getattr(ext, "_linear_utility_weights", False)
    if weights is False:
        from repro.core.utility import LinearUtility

        if all(type(v.utility) is LinearUtility for v in ext.commodities):
            weights = np.array([v.utility.weight for v in ext.commodities])
        else:
            weights = None
        ext._linear_utility_weights = weights
    return weights


def link_cost_derivative(
    ext: ExtendedNetwork,
    cost_model: CostModel,
    edge_usage: np.ndarray,
    node_usage: np.ndarray,
) -> np.ndarray:
    """Eq. (11): ``dA_i/df_ik`` for every extended edge.

    For the dummy difference link of commodity ``j`` this is the marginal
    utility loss ``U_j'(lambda_j - f)``; for every other edge it is the
    (eps-scaled) penalty derivative ``eps * D_i'(f_i)`` at the tail node.
    Dummy and sink nodes have infinite capacity, hence zero penalty term.
    """
    node_term = cost_model.eps * np.asarray(
        cost_model.penalty.derivative(node_usage, ext.capacity), dtype=float
    )
    dadf = node_term[ext.edge_tail]
    weights = _linear_utility_weights(ext)
    if weights is not None:
        # U_j'(.) == w_j regardless of the remaining rate
        dadf[ext.commodity_difference_edges] = weights
        return dadf
    for view in ext.commodities:
        e = view.difference_edge
        remaining = max(view.max_rate - float(edge_usage[e]), 0.0)
        dadf[e] = float(view.utility.derivative(remaining))
    return dadf


def marginal_cost_to_destination_scalar(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    dadf: np.ndarray,
) -> np.ndarray:
    """Eq. (9): ``dA/dr_i(j)`` for every node, for one commodity.

    The scalar reference of :func:`all_marginal_costs`: a walk in reverse
    topological order of the commodity DAG with the boundary condition
    ``dA/dr_j(j) = 0`` at the sink -- exactly the information wave the
    distributed protocol propagates upstream.  Nodes outside the commodity
    subgraph get 0.
    """
    view = ext.commodities[j]
    phi = routing.phi
    dadr = np.zeros(ext.num_nodes, dtype=float)
    out_lists = ext.commodity_out_edges[j]
    for node in reversed(view.topo_order):
        if node == view.sink:
            continue
        acc = 0.0
        for e in out_lists[node]:
            frac = phi[j, e]
            if frac != 0.0:
                acc += frac * (
                    dadf[e] * ext.cost[j, e]
                    + ext.gain[j, e] * dadr[ext.edge_head[e]]
                )
        dadr[node] = acc
    return dadr


def all_marginal_costs(
    ext: ExtendedNetwork, routing: RoutingState, dadf: np.ndarray
) -> np.ndarray:
    """``dA/dr`` for all commodities: shape ``(J, V)`` (eq. (9)).

    One cross-commodity reverse wave: ordered ``np.bincount`` sweeps over
    the height levels of :class:`repro.core.state.ModelState`, which add
    the scalar walk's contributions in its order -- row ``j`` is bit
    identical to :func:`marginal_cost_to_destination_scalar`.
    """
    return ModelState.of(ext).marginal_costs(routing.phi.reshape(-1), dadf)


def edge_marginals(
    ext: ExtendedNetwork, j: int, dadf: np.ndarray, dadr: np.ndarray
) -> np.ndarray:
    """Per-edge marginal cost ``delta_e(j) = dA_i/df_e * c_e(j) + beta_e(j) * dA/dr_head(j)``.

    This is the bracketed quantity in eqs. (9), (10), (15): the marginal cost
    of pushing one more unit of commodity ``j`` through edge ``e``.  Only
    meaningful on the commodity's allowed edges.
    """
    return dadf * ext.cost[j] + ext.gain[j] * dadr[ext.edge_head]


def all_edge_marginals(
    ext: ExtendedNetwork, dadf: np.ndarray, dadr: np.ndarray
) -> np.ndarray:
    """:func:`edge_marginals` for all commodities at once: ``(J, E)``.

    ``dadr`` is the stacked ``(J, V)`` marginal-cost array.  Row ``j`` is
    elementwise identical to ``edge_marginals(ext, j, dadf, dadr[j])``.
    """
    return dadf[None, :] * ext.cost + ext.gain * dadr[:, ext.edge_head]


def phi_gradient(
    ext: ExtendedNetwork,
    routing: RoutingState,
    traffic: Optional[np.ndarray] = None,
    cost_model: Optional[CostModel] = None,
) -> np.ndarray:
    """Eq. (10): the full gradient ``dA/dphi`` as a ``(J, E)`` array."""
    if cost_model is None:
        cost_model = CostModel()
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    edge_usage, node_usage = resource_usage(ext, routing, traffic)
    dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
    dadr = all_marginal_costs(ext, routing, dadf)
    grad = np.zeros_like(routing.phi)
    for view in ext.commodities:
        j = view.index
        delta = edge_marginals(ext, j, dadf, dadr[j])
        grad[j] = traffic[j, ext.edge_tail] * delta * ext.allowed[j]
    return grad


@dataclass
class OptimalityReport:
    """Residuals of Theorem 2's optimality conditions at a routing state.

    ``equal_residual`` measures violation of the necessary condition
    (eq. (12)): among edges actually carrying flow at a node, all marginal
    costs must equal the nodewise minimum.  ``sufficient_residual`` measures
    violation of the sufficient condition (eq. (13)):
    ``delta_e(j) >= dA/dr_i(j)`` for every allowed out-edge.  Both are
    normalised by the magnitude of the marginals involved; a state is
    (numerically) optimal when both are ~0.
    """

    equal_residual: float
    sufficient_residual: float
    per_commodity_equal: List[float]
    per_commodity_sufficient: List[float]

    def satisfied(self, tol: float = 1e-3) -> bool:
        return self.equal_residual <= tol and self.sufficient_residual <= tol


def optimality_residual(
    ext: ExtendedNetwork,
    routing: RoutingState,
    cost_model: Optional[CostModel] = None,
    traffic_threshold: float = 1e-9,
    phi_threshold: float = 1e-6,
    context=None,
) -> OptimalityReport:
    """Evaluate how far a routing state is from satisfying Theorem 2.

    ``context`` optionally supplies a precomputed
    :class:`repro.core.context.IterationContext` for ``routing`` so the flow
    balance and the marginal wave are not solved again.
    """
    if context is not None and context.dadf is not None:
        traffic = context.traffic
        dadf = context.dadf
    else:
        if cost_model is None:
            cost_model = CostModel()
        traffic = solve_traffic(ext, routing)
        edge_usage, node_usage = resource_usage(ext, routing, traffic)
        dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
    if context is not None and context.dadr is not None:
        dadr_all, delta_all = context.dadr, context.delta
    else:
        # a batch-final context (ParallelBackend.advance) carries dadf but
        # not the stacked derivative arrays; run the reverse wave here then
        dadr_all, delta_all = all_marginal_costs(ext, routing, dadf), None

    per_equal: List[float] = []
    per_sufficient: List[float] = []
    for view in ext.commodities:
        j = view.index
        dadr = dadr_all[j]
        if delta_all is not None:
            delta = delta_all[j]
        else:
            delta = edge_marginals(ext, j, dadf, dadr)
        worst_equal = 0.0
        worst_sufficient = 0.0
        for node in view.node_indices:
            if node == view.sink or traffic[j, node] <= traffic_threshold:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            deltas = delta[out]
            scale = max(1.0, float(np.max(np.abs(deltas))))
            best = float(deltas.min())
            active = [e for e in out if routing.phi[j, e] > phi_threshold]
            if active:
                spread = float(max(delta[e] for e in active) - best) / scale
                worst_equal = max(worst_equal, spread)
            shortfall = float(dadr[node] - best) / scale
            worst_sufficient = max(worst_sufficient, max(0.0, shortfall))
        per_equal.append(worst_equal)
        per_sufficient.append(worst_sufficient)

    return OptimalityReport(
        equal_residual=max(per_equal) if per_equal else 0.0,
        sufficient_residual=max(per_sufficient) if per_sufficient else 0.0,
        per_commodity_equal=per_equal,
        per_commodity_sufficient=per_sufficient,
    )
