"""One gradient iteration rebuilt from the core's public calls, timed per equation.

``SerialBackend.build_context`` and ``SerialBackend.step`` make exactly the
calls below in exactly this order, so the iterates are bit-identical to
``GradientAlgorithm.compute_context`` / ``GradientAlgorithm.step`` (the solve
workload asserts it).  Each call is one span:

    flow            solve_traffic                     eq. 3
    usage           resource_usage                    eqs. 4-5
    cost            evaluate_cost
    dadf            link_cost_derivative
    dadr            all_marginal_costs                eqs. 9-11
    edge_marginals  ModelState.edge_marginals_dense   eq. 15
    blocked         compute_all_blocked_sets          eq. 18
    gamma           apply_gamma_batch (+ the routing copy it writes into)  eqs. 14-17
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.blocking import compute_all_blocked_sets
from repro.core.context import IterationContext
from repro.core.gradient import apply_gamma_batch
from repro.core.marginals import (
    all_edge_marginals,
    all_marginal_costs,
    evaluate_cost,
    link_cost_derivative,
)
from repro.core.routing import RoutingState, resource_usage, solve_traffic
from repro.core.state import ModelState, use_array_core

SPANS = (
    "flow", "usage", "cost", "dadf", "dadr", "edge_marginals", "blocked", "gamma",
)


def allowed_cells(ext) -> int:
    """Allowed (commodity, edge) cells: the work one sweep visits."""
    return sum(len(view.edge_indices) for view in ext.commodities)


class CoreSplit:
    """Per-equation seconds accumulated over traced iterations."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.iterations = 0
        self.wall = 0.0  # the loops the spans sit in, start to end

    def context(self, ext, routing: RoutingState, cost_model) -> IterationContext:
        clock = time.perf_counter
        s = self.seconds
        t0 = clock()
        traffic = solve_traffic(ext, routing)
        t1 = clock()
        edge_usage, node_usage = resource_usage(ext, routing, traffic)
        t2 = clock()
        breakdown = evaluate_cost(
            ext, routing, cost_model, traffic, usage=(edge_usage, node_usage)
        )
        t3 = clock()
        dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
        t4 = clock()
        dadr = all_marginal_costs(ext, routing, dadf)
        t5 = clock()
        if use_array_core():
            delta = ModelState.of(ext).edge_marginals_dense(dadf, dadr.reshape(-1))
        else:
            delta = all_edge_marginals(ext, dadf, dadr)
        t6 = clock()
        s["flow"] += t1 - t0
        s["usage"] += t2 - t1
        s["cost"] += t3 - t2
        s["dadf"] += t4 - t3
        s["dadr"] += t5 - t4
        s["edge_marginals"] += t6 - t5
        return IterationContext(
            routing=routing, traffic=traffic, edge_usage=edge_usage,
            node_usage=node_usage, breakdown=breakdown, dadf=dadf, dadr=dadr,
            delta=delta,
        )

    def step(self, ext, config, routing: RoutingState,
             context: IterationContext) -> RoutingState:
        clock = time.perf_counter
        eta = config.eta
        # the copy is the buffer Gamma writes into: it counts as gamma
        c0 = clock()
        new_phi = routing.phi.copy()
        t0 = clock()
        blocked = None
        if config.use_blocking:
            blocked = compute_all_blocked_sets(
                ext, routing, context.traffic, context.dadr, context.delta, eta
            ).reshape(-1)
            if not blocked.any():
                blocked = None
        t1 = clock()
        apply_gamma_batch(
            new_phi.reshape(-1), ext.merged_gamma_plan,
            context.traffic.reshape(-1), context.delta.reshape(-1), blocked,
            eta, config.traffic_tol,
        )
        t2 = clock()
        self.seconds["blocked"] += t1 - t0
        self.seconds["gamma"] += (t2 - t1) + (t0 - c0)
        self.iterations += 1
        return RoutingState(new_phi)

    def advance(self, ext, config, routing: RoutingState,
                iterations: int) -> RoutingState:
        """``ExecutionBackend.advance(routing, None, iterations)``, traced."""
        start = time.perf_counter()
        context = self.context(ext, routing, config.cost_model)
        for _ in range(iterations):
            routing = self.step(ext, config, routing, context)
            context = self.context(ext, routing, config.cost_model)
        self.wall += time.perf_counter() - start
        return routing

    def metrics(self) -> Dict[str, float]:
        """``core.*`` per-layer metrics: ms per iteration and coverage."""
        n = max(1, self.iterations)
        out = {f"core.{name}_ms": 1e3 * sec / n for name, sec in self.seconds.items()}
        out["core.iteration_ms"] = 1e3 * self.wall / n
        out["core.coverage"] = (
            sum(self.seconds.values()) / self.wall if self.wall > 0 else 0.0
        )
        out["core.iterations"] = float(self.iterations)
        return out
