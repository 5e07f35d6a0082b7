"""TAB-ITERCORE -- per-iteration cost of the gradient engine's inner loop.

The seed implementation re-solved the flow balance (eq. (3)) three times per
recorded iteration: once inside the step, once for the convergence check, and
once for the trajectory record.  The shared :class:`IterationContext` plus the
per-level vectorized solvers collapse that to exactly one solve per iteration
and replace the per-edge Python loops with NumPy scatter passes.

This bench times both pipelines on the medium instance of TAB-SCALE (40
physical nodes, 3 commodities, seed 17) under the seed's default
``record_every=1`` regime, asserts the advertised >= 3x speedup, and -- the
part that makes the optimisation safe -- asserts the two pipelines produce
**bit-identical** routing iterates for the whole trajectory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from conftest import emit, host_context

from repro import build_extended_network
from repro.obs import Instrumentation, write_metrics_json
from repro.analysis import TableBuilder
from repro.core.gradient import GradientAlgorithm, GradientConfig, IterationRecord
from repro.core.marginals import evaluate_cost
from repro.core.routing import initial_routing, resource_usage, solve_traffic_scalar
from repro.scenarios import random_stream_network
from repro.scenarios import RandomNetworkSpec

ITERATIONS = 300
MIN_SPEEDUP = 3.0

# CI smoke mode: shared runners have no stable clock to hold a timing gate
# against, so ITERCORE_SMOKE=1 shrinks the run and keeps only the
# correctness half of the test (the full-trajectory bit-identity assert)
SMOKE = os.environ.get("ITERCORE_SMOKE", "") == "1"
if SMOKE:
    ITERATIONS = 100


def _make_medium_ext():
    spec = RandomNetworkSpec(
        num_nodes=40,
        num_commodities=3,
        depth_range=(4, 6),
        layer_width_range=(3, 5),
    )
    return build_extended_network(random_stream_network(spec, seed=17))


def _reference_iteration(algo, routing, eta):
    """One iteration of the seed's run loop (``record_every=1``).

    The step is ``GradientAlgorithm.step_reference``: the paper-literal
    scalar walks (flow solve, usage sum, marginal wave, blocked sets) and
    the per-node ``Gamma`` kernel, once per commodity / once per node --
    the seed's composition, sharing no kernel with the engine's step.
    """
    ext = algo.ext
    cost_model = algo.config.cost_model
    routing = algo.step_reference(routing, eta)
    # convergence check: seed's evaluate_cost re-solved the flow balance
    traffic = solve_traffic_scalar(ext, routing)
    evaluate_cost(ext, routing, cost_model, traffic)
    # trajectory record: a third solve plus another usage pass
    traffic = solve_traffic_scalar(ext, routing)
    evaluate_cost(ext, routing, cost_model, traffic)
    resource_usage(ext, routing, traffic)
    return routing


class _ReferencePipeline:
    """The seed's per-iteration work, advanced chunk by chunk."""

    def __init__(self, algo):
        self.algo = algo
        self.routing = initial_routing(algo.ext)
        self.trajectory = [self.routing.phi.copy()]

    def advance(self, iterations):
        eta = self.algo.config.eta
        start = time.perf_counter()
        for _ in range(iterations):
            self.routing = _reference_iteration(self.algo, self.routing, eta)
            self.trajectory.append(self.routing.phi.copy())
        return time.perf_counter() - start


class _CachedPipeline:
    """The new per-iteration work: one IterationContext feeds everything."""

    def __init__(self, algo):
        self.algo = algo
        self.routing = initial_routing(algo.ext)
        self.context = algo.compute_context(self.routing)
        self.trajectory = [self.routing.phi.copy()]

    def advance(self, iterations):
        algo = self.algo
        start = time.perf_counter()
        for _ in range(iterations):
            self.routing = algo.step(self.routing, context=self.context)
            self.context = algo.compute_context(self.routing)
            IterationRecord.from_context(0, self.context, algo.ext.capacity)
            self.trajectory.append(self.routing.phi.copy())
        return time.perf_counter() - start


def test_iteration_core_speedup(benchmark):
    ext = _make_medium_ext()
    algo = GradientAlgorithm(ext, GradientConfig(eta=0.04))
    chunk = 25
    n_chunks = ITERATIONS // chunk

    def run_experiment():
        # warm both paths (lazy plan construction, allocator churn)
        _CachedPipeline(algo).advance(3)
        _ReferencePipeline(algo).advance(3)
        ref = _ReferencePipeline(algo)
        new = _CachedPipeline(algo)
        # interleave the measurements chunk by chunk: each ref/new pair runs
        # back to back under (nearly) the same machine conditions, so the
        # per-chunk ratios are robust to CPU frequency drift across the run
        ref_times, new_times = [], []
        for _ in range(n_chunks):
            ref_times.append(ref.advance(chunk))
            new_times.append(new.advance(chunk))
        return ref, new, ref_times, new_times

    ref, new, ref_times, new_times = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    # correctness first: the speedup changes no iterate, bit for bit
    assert len(ref.trajectory) == len(new.trajectory)
    for k, (a, b) in enumerate(zip(ref.trajectory, new.trajectory)):
        assert np.array_equal(a, b), f"iterate {k} diverged"

    ref_us = 1e6 * sum(ref_times) / ITERATIONS
    new_us = 1e6 * sum(new_times) / ITERATIONS
    speedup = float(
        np.median(np.asarray(ref_times) / np.asarray(new_times))
    )

    table = TableBuilder(["pipeline", "us/iteration", "median speedup"])
    table.add_row("seed (scalar, 3x flow solve)", f"{ref_us:.0f}", "1.0x")
    table.add_row("iteration cache + vectorized", f"{new_us:.0f}", f"{speedup:.1f}x")
    emit(
        "TAB-ITERCORE: shared iteration cache vs seed inner loop "
        f"(40-node medium instance, {ITERATIONS} iterations, "
        f"median over {n_chunks} interleaved chunks)",
        table.render(),
    )

    # machine-readable twin of the table above, in the repro.metrics/1
    # schema, so CI can archive BENCH_*.json artifacts across runs
    inst = Instrumentation()
    for ref_chunk, new_chunk in zip(ref_times, new_times):
        inst.registry.histogram("chunk.reference.seconds").observe(ref_chunk)
        inst.registry.histogram("chunk.cached.seconds").observe(new_chunk)
    inst.gauge("speedup_median", speedup)
    inst.gauge("us_per_iteration.reference", ref_us)
    inst.gauge("us_per_iteration.cached", new_us)
    inst.count("iterations", ITERATIONS)
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    write_metrics_json(
        inst,
        results_dir / "BENCH_ITERCORE.json",
        bench="TAB-ITERCORE",
        iterations=ITERATIONS,
        chunk_size=chunk,
        smoke=SMOKE,
        host=host_context(),
    )

    if not SMOKE:
        assert speedup >= MIN_SPEEDUP
