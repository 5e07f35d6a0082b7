"""``solve-1000``: a cold gradient solve to 95% of the LP optimum.

The instance is the 1000-node / 16-commodity rung of TAB-SCALE-LADDER
(``benchmarks/bench_scale_ladder.py``, network seed 29, eta = 0.02).  It is
pinned: the time to 95% is a property of the instance, so a seed that
changed the network would measure instance variance, not the code.  The
``--seed`` argument is recorded in the stamp only.

Only the gradient core runs here; serve, delta and shed are idle, so their
per-layer metrics read 0.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from common import lp_optima, median, percentile, self_peak_rss_mb, tail_percentile
from core_trace import CoreSplit, allowed_cells

from repro import build_extended_network
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import initial_routing
from repro.core.solution import build_solution
from repro.io import network_to_dict
from repro.scenarios import RandomNetworkSpec, random_stream_network
from repro.serve.session import SERVE_CHECKS
from repro.validate import InvariantChecker

NUM_NODES = 1000
NUM_COMMODITIES = 16
NETWORK_SEED = 29
ETA = 0.02
TARGET = 0.95
SETUP_REPEATS = 5
# a miss, not a hang: the rung reaches 95% in 2415 iterations
MAX_ITERATIONS = 8000
OVERHEAD_BLOCK = 100


def ladder_spec() -> RandomNetworkSpec:
    """The rung's instance family, as ``bench_scale_ladder._ladder_spec``."""
    width = max(3, NUM_NODES // (NUM_COMMODITIES * 4))
    return RandomNetworkSpec(
        num_nodes=NUM_NODES,
        num_commodities=NUM_COMMODITIES,
        depth_range=(4, 6),
        layer_width_range=(width, width + 2),
        extra_edge_probability=0.1,
    )


def set_up():
    """Compile the network, extend it, and compile every lazy plan.

    The first context compiles the ``ModelState`` sweeps and the first step
    the merged Gamma plan; the step's result is discarded.
    """
    network = random_stream_network(ladder_spec(), seed=NETWORK_SEED)
    ext = build_extended_network(network)
    algo = GradientAlgorithm(ext, GradientConfig(eta=ETA))
    routing = initial_routing(ext)
    algo.step(routing, context=algo.compute_context(routing))
    return network, ext, algo


def cold_solve(ext, algo, target: float):
    """Untraced solve; returns (seconds, per-iteration seconds, routing, context)."""
    clock = time.perf_counter
    laps: List[float] = []
    start = clock()
    routing = initial_routing(ext)
    context = algo.compute_context(routing)
    last = clock()
    while context.breakdown.utility < target and len(laps) < MAX_ITERATIONS:
        routing = algo.step(routing, context=context)
        context = algo.compute_context(routing)
        now = clock()
        laps.append(now - last)
        last = now
    return last - start, laps, routing, context


class BlockSolve:
    """One cold solve, advanced a block of iterations at a time."""

    def __init__(self, ext, step, context_of, target: float) -> None:
        self.step = step
        self.context_of = context_of
        self.target = target
        self.routing = initial_routing(ext)
        self.context = None
        self.iterations = 0
        self.seconds = 0.0

    @property
    def done(self) -> bool:
        return self.context is not None and self.context.breakdown.utility >= self.target

    def advance(self, limit: int) -> None:
        start = time.perf_counter()
        if self.context is None:
            self.context = self.context_of(self.routing)
        for _ in range(limit):
            if self.context.breakdown.utility >= self.target:
                break
            self.routing = self.step(self.routing, self.context)
            self.context = self.context_of(self.routing)
            self.iterations += 1
        self.seconds += time.perf_counter() - start


def traced_solve(ext, algo, target: float) -> Tuple[CoreSplit, float, bool]:
    """A traced and an untraced solve, interleaved in blocks of iterations.

    Blocks of ``OVERHEAD_BLOCK`` iterations alternate ABBA between the two,
    so both run under the same host speed and the difference of their times
    is the tracing overhead.  (Interleaving single iterations does not work:
    the allocator then hands one side colder pages, skewing it by ~20%.)
    Returns the split, the untraced seconds, and whether the traced solve
    ended bit-identical to the untraced one at the same iteration.
    """
    config = algo.config
    split = CoreSplit()
    plain = BlockSolve(
        ext, lambda r, c: algo.step(r, context=c), algo.compute_context, target
    )
    traced = BlockSolve(
        ext,
        lambda r, c: split.step(ext, config, r, c),
        lambda r: split.context(ext, r, config.cost_model),
        target,
    )
    block = 0
    while not (plain.done and traced.done) and max(
        plain.iterations, traced.iterations
    ) < MAX_ITERATIONS:
        pair = (plain, traced) if block % 4 in (0, 3) else (traced, plain)
        for solve in pair:
            solve.advance(OVERHEAD_BLOCK)
        block += 1
    split.wall = traced.seconds
    identical = plain.iterations == traced.iterations and np.array_equal(
        plain.routing.phi, traced.routing.phi
    )
    return split, plain.seconds, identical


def audit(ext, algo, routing, context, iterations: int) -> bool:
    """The 95% iterate passes the serve daemon's per-epoch invariant audit."""
    solution = build_solution(
        ext, routing, algo.config.cost_model, method="gradient",
        iterations=iterations, traffic=context.traffic,
    )
    return bool(InvariantChecker(ext, checks=SERVE_CHECKS).check_solution(solution).passed)


def run(seed: int, seconds: int, trace: bool) -> Dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        network, ext, algo = set_up()
        setup_times.append(time.perf_counter() - start)

    (optimum,) = lp_optima(
        [network_to_dict(network)], [f"solve-1000/network-seed={NETWORK_SEED}"]
    )
    target = TARGET * optimum
    notes: Dict = {"lp_optimum": optimum, "target_utility": target}

    # every run holds at least one untraced solve: the reference iterate for
    # the audit and the iteration count the traced solve must match
    solves = []
    budget_start = time.perf_counter()
    while True:
        solves.append(cold_solve(ext, algo, target))
        spent = time.perf_counter() - budget_start
        if trace or spent + solves[-1][0] > seconds:
            break

    _, laps, routing, context = solves[0]
    iterations = len(laps)
    reached = [s[3].breakdown.utility >= target for s in solves]
    same = [
        len(s[1]) == iterations and np.array_equal(s[2].phi, routing.phi)
        for s in solves
    ]
    audited = audit(ext, algo, routing, context, iterations)
    attempted = len(solves) + 1
    failed = sum(1 for ok, eq in zip(reached, same) if not (ok and eq))
    failed += 0 if audited else 1
    notes.update(
        iterations_to_95pct=iterations,
        solves=len(solves),
        audit_passed=audited,
        deterministic=all(same),
        utility_at_95pct=context.breakdown.utility,
    )

    if not trace:
        # each solve's own percentiles, then the median over solves: the
        # host's speed shifts on a scale of seconds, and pooling the laps
        # would hand the tail to the slowest solve
        tail = tail_percentile(iterations)
        notes.update(
            solve_s=[s[0] for s in solves], iteration_samples=iterations,
            tail_percentile=tail,
        )
        metrics = {
            "setup_s": median(setup_times),
            "work_s": median([s[0] for s in solves]),
            "p50_ms": 1e3 * median([median(s[1]) for s in solves]),
            "p99_ms": 1e3 * median([percentile(s[1], tail) for s in solves]),
            "utility_ratio": context.breakdown.utility / optimum,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        return dict(metrics=metrics, attempted=attempted, failed=failed, notes=notes)

    split, untraced_s, identical = traced_solve(ext, algo, target)
    identical = identical and split.iterations == iterations
    if not identical:
        failed += 1
    attempted += 1
    layer = split.metrics()
    layer["core.cells"] = float(allowed_cells(ext))
    layer["trace.untraced_s"] = untraced_s
    layer["trace.traced_s"] = split.wall
    layer["trace.overhead_pct"] = 100.0 * (split.wall - untraced_s) / untraced_s
    notes.update(bit_identical=identical)
    return dict(metrics=layer, attempted=attempted, failed=failed, notes=notes)
