"""Per-iteration flow cache: everything derivable from one routing state.

Every phase of a gradient iteration -- the update map ``Gamma``, the
convergence check, the trajectory record, the optimality residuals -- needs
the same quantities: the flow balance solution ``t`` (eq. (3)), the resource
usage ``f`` (eqs. (4)-(5)), the cost breakdown ``A = Y + eps * D``, and the
derivative chain ``dA/df -> dA/dr -> delta`` (eqs. (9), (11), (15)).  The
seed implementation recomputed them ad hoc, solving the flow balance up to
three times per iteration.  :class:`IterationContext` computes each exactly
once per routing state; the run loops thread it through so every consumer
reads the cache instead of re-solving.

The context is immutable by convention: it describes one routing state, and
a new state gets a new context (see :meth:`GradientAlgorithm.run
<repro.core.gradient.GradientAlgorithm.run>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.marginals import (
    CostBreakdown,
    CostModel,
    all_marginal_costs,
    evaluate_cost,
    link_cost_derivative,
)
from repro.core.routing import RoutingState, resource_usage, solve_traffic
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = ["IterationContext", "build_iteration_context"]


@dataclass(frozen=True)
class IterationContext:
    """All per-iteration quantities of one routing state, computed once.

    ``dadr`` and ``delta`` are ``None`` when the context was built with
    ``with_derivatives=False`` (recording-only consumers such as the
    distributed runner's per-record cost evaluation).
    """

    routing: RoutingState
    traffic: np.ndarray  # (J, V): eq. (3)
    edge_usage: np.ndarray  # (E,): eq. (4)
    node_usage: np.ndarray  # (V,): eq. (5)
    breakdown: CostBreakdown  # A = Y + eps * D and its components
    dadf: Optional[np.ndarray]  # (E,): eq. (11)
    dadr: Optional[np.ndarray]  # (J, V): eq. (9)
    delta: Optional[np.ndarray]  # (J, E): eq. (15)'s bracket

    @property
    def cost(self) -> float:
        return float(self.breakdown.total)


def build_iteration_context(
    ext: ExtendedNetwork,
    routing: RoutingState,
    cost_model: CostModel,
    with_derivatives: bool = True,
    instrumentation=None,
) -> IterationContext:
    """Solve the flow balance once and derive everything an iteration needs.

    ``instrumentation`` (``repro.obs.Instrumentation``) times the two
    phases -- the flow solve and the derivative chain -- and counts flow
    solves; it never changes what is computed.
    """
    if instrumentation is None:
        instrumentation = NULL_INSTRUMENTATION
    with instrumentation.phase("flow_solve"):
        traffic = solve_traffic(ext, routing)
        edge_usage, node_usage = resource_usage(ext, routing, traffic)
        breakdown = evaluate_cost(
            ext, routing, cost_model, traffic, usage=(edge_usage, node_usage)
        )
    instrumentation.count("flow_solves")
    dadf = dadr = delta = None
    if with_derivatives:
        with instrumentation.phase("derivatives"):
            dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
            dadr = all_marginal_costs(ext, routing, dadf)
            # sparse fill over the allowed cells only: every consumer of the
            # context's delta masks to allowed cells, where this is
            # bit-identical to the dense table (off-graph cells read 0.0
            # here instead of the meaningless dense dadr[head] term)
            delta = ModelState.of(ext).edge_marginals_dense(dadf, dadr.reshape(-1))
    return IterationContext(
        routing=routing,
        traffic=traffic,
        edge_usage=edge_usage,
        node_usage=node_usage,
        breakdown=breakdown,
        dadf=dadf,
        dadr=dadr,
        delta=delta,
    )
