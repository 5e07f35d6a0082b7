"""TAB-STALE -- how often must the marginal-cost wave run?

The paper's algorithm runs the full O(L) marginal-cost broadcast every
iteration -- the very cost that makes an iteration expensive (Section 6).
A natural engineering question the paper leaves open: can nodes keep
updating their routing with *stale* marginals, refreshing the wave only
every k-th iteration?  Each node still tracks its own traffic ``t_i(j)``
(local knowledge, refreshed by the cheap forecast pass), but reuses the last
received ``dA/dr`` values in between.

This bench sweeps the refresh period on the Figure-4 instance and reports
iterations to 95% of optimal, *wave count* to 95% (the actual communication
bill), and the final utility.

Findings encoded in the shape assertions: every moderately stale variant
(period <= 5) still *reaches* 95% of optimal, and the number of global waves
needed to get there drops monotonically with the period (staleness trades
per-iteration communication for iterations at a profit).  But staleness also
erodes *stability*: with fixed eta the effective step per wave grows with
the period, so stale variants can oscillate after reaching the optimum, and
beyond period ~10 the updates chase a landscape that has already moved and
never settle.  Deployed systems should either refresh frequently or shrink
eta with the refresh period.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro import GradientConfig
from repro.analysis import TableBuilder, iterations_to_fraction
from repro.core.blocking import compute_all_blocked_sets
from repro.core.gradient import apply_gamma_at_node
from repro.core.marginals import (
    CostModel,
    all_edge_marginals,
    all_marginal_costs,
    evaluate_cost,
    link_cost_derivative,
)
from repro.core.routing import initial_routing, resource_usage, solve_traffic

REFRESH_PERIODS = [1, 2, 5, 10, 20]
MAX_ITERATIONS = 4000
ETA = 0.04


def run_with_stale_marginals(ext, refresh_every: int, record_every: int = 10):
    """The paper's loop, but the global marginal wave only fires every
    ``refresh_every`` iterations; routing updates in between reuse the last
    deltas with fresh local traffic."""
    cfg = GradientConfig(eta=ETA)
    cost_model = CostModel(eps=0.2)
    routing = initial_routing(ext)
    deltas = blocked = None
    iterations, utilities = [], []

    for iteration in range(1, MAX_ITERATIONS + 1):
        traffic = solve_traffic(ext, routing)
        if (iteration - 1) % refresh_every == 0:
            edge_usage, node_usage = resource_usage(ext, routing, traffic)
            dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
            dadr = all_marginal_costs(ext, routing, dadf)
            deltas = all_edge_marginals(ext, dadf, dadr)
            blocked = compute_all_blocked_sets(
                ext, routing, traffic, dadr, deltas, ETA
            )
        new_phi = routing.phi.copy()
        for view in ext.commodities:
            j = view.index
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = ext.commodity_out_edges[j][node]
                if len(out) < 2:
                    continue
                apply_gamma_at_node(
                    new_phi[j],
                    traffic[j, node],
                    out,
                    deltas[j],
                    blocked[j],
                    ETA,
                    cfg.traffic_tol,
                )
        routing.phi = new_phi
        if iteration % record_every == 0 or iteration == MAX_ITERATIONS:
            iterations.append(iteration)
            utilities.append(
                evaluate_cost(ext, routing, cost_model).utility
            )
    return np.array(iterations), np.array(utilities)


def test_stale_marginal_tolerance(benchmark, figure4_ext, figure4_lp):
    optimum = figure4_lp.utility

    def run_sweep():
        rows = []
        for period in REFRESH_PERIODS:
            iterations, utilities = run_with_stale_marginals(figure4_ext, period)
            hit95 = iterations_to_fraction(iterations, utilities, optimum, 0.95)
            if hit95 is not None:
                tail = utilities[iterations >= hit95]
                stability = float(tail.min()) / optimum
            else:
                stability = float("nan")
            rows.append(
                {
                    "period": period,
                    "final": float(utilities[-1]),
                    "fraction": float(utilities[-1]) / optimum,
                    "hit95": hit95,
                    "waves95": (hit95 // period + 1) if hit95 is not None else None,
                    "stability": stability,
                }
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = TableBuilder(
        [
            "wave refresh period",
            "final utility",
            "of optimal",
            "iters to 95%",
            "global waves to 95%",
            "post-hit stability",
        ]
    )
    for row in rows:
        table.add_row(
            row["period"],
            row["final"],
            f"{row['fraction']:.1%}",
            row["hit95"],
            row["waves95"],
            f"{row['stability']:.1%}" if row["stability"] == row["stability"] else "-",
        )
    emit(
        "TAB-STALE: routing updates with stale marginal costs "
        f"(Figure-4 instance, eta={ETA}, optimal = {optimum:.3f})",
        table.render(),
    )

    by_period = {row["period"]: row for row in rows}
    # the every-iteration baseline behaves like the reference implementation
    # and stays put once converged
    assert by_period[1]["fraction"] >= 0.95
    assert by_period[1]["stability"] >= 0.95
    # every moderately stale variant still reaches the 95% band ...
    for period in (2, 5):
        assert by_period[period]["hit95"] is not None
    # ... and the communication bill to get there drops monotonically
    waves = [by_period[p]["waves95"] for p in (1, 2, 5)]
    assert waves[0] > waves[1] > waves[2]
    # the staleness cliff: very stale marginals destabilise the updates
    assert by_period[20]["fraction"] < 0.90
