#!/usr/bin/env python3
"""Reproduce Figure 4: gradient vs back-pressure convergence on a 40-node net.

Replays the paper's Section-6 experiment: a random 40-node network with 3
commodities (capacities ~ U[1,100], potentials ~ U[1,10], costs ~ U[1,5]),
throughput utility, eps = 0.2, eta = 0.04.  Prints the convergence table and
an ASCII rendition of Figure 4 (utility vs iterations, log-x).

Run:  python examples/figure4_reproduction.py [--full]

The default is a trimmed run (~30 s).  ``--full`` extends the back-pressure
horizon to 200k iterations to show its long tail.
"""

import argparse

from repro import (
    BackpressureAlgorithm,
    BackpressureConfig,
    GradientAlgorithm,
    GradientConfig,
    build_extended_network,
    solve_lp,
)
from repro.analysis import AlgorithmTrajectory, ascii_plot, figure4_table
from repro.scenarios import paper_figure4_network


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--full", action="store_true", help="long back-pressure run")
    args = parser.parse_args()

    network = paper_figure4_network(seed=args.seed)
    ext = build_extended_network(network)
    print(f"workload: {network}")
    print(f"extended: {ext}")
    offered = [f"{rate:.1f}" for rate in ext.commodity_max_rates]
    print(f"offered rates: {offered}")

    optimum = solve_lp(ext)
    print(f"\noptimal total throughput (LP): {optimum.utility:.3f}")

    print("\nrunning gradient algorithm (eta=0.04, eps=0.2)...")
    gradient = GradientAlgorithm(
        ext, GradientConfig(eta=0.04, max_iterations=5000, record_every=10)
    ).run()
    print(
        f"  -> {gradient.solution.utility:.3f} "
        f"({100 * gradient.solution.utility / optimum.utility:.1f}% of optimal) "
        f"after {gradient.iterations} iterations"
    )

    bp_iterations = 200_000 if args.full else 60_000
    print(f"\nrunning back-pressure baseline ({bp_iterations} iterations)...")
    backpressure = BackpressureAlgorithm(
        ext,
        BackpressureConfig(
            max_iterations=bp_iterations, record_every=200, buffer_cap=1000.0
        ),
    ).run()
    print(
        f"  -> {backpressure.utility:.3f} "
        f"({100 * backpressure.utility / optimum.utility:.1f}% of optimal)"
    )

    print("\n" + "=" * 76)
    print(
        figure4_table(
            optimum.utility,
            [
                AlgorithmTrajectory(
                    "gradient (eta=0.04)",
                    gradient.recorded_iterations,
                    gradient.utilities,
                ),
                AlgorithmTrajectory(
                    "back-pressure",
                    backpressure.recorded_iterations,
                    backpressure.utilities,
                ),
            ],
        )
    )

    print()
    print(
        ascii_plot(
            [
                (
                    "gradient",
                    gradient.recorded_iterations.tolist(),
                    gradient.utilities.tolist(),
                ),
                (
                    "back-pressure",
                    backpressure.recorded_iterations.tolist(),
                    backpressure.utilities.tolist(),
                ),
                (
                    "optimal",
                    [1, bp_iterations],
                    [optimum.utility, optimum.utility],
                ),
            ],
            log_x=True,
            title="Figure 4: cumulative system utility vs iterations (log scale)",
            x_label="iterations",
            y_label="total throughput",
        )
    )


if __name__ == "__main__":
    main()
