"""TAB-SCALE -- behaviour as the network grows (paper's "large scale" claim).

The paper motivates the design with "large scale decentralized stream
processing systems" but only evaluates one 40-node instance.  This bench
quantifies how the approach scales: per-iteration wall time of the
synchronous engine, iterations to reach 95% of optimal, and the per-iteration
message/round cost of the real protocol, for networks from 10 to 80 nodes.

Shape assertions: per-iteration cost grows roughly linearly in the extended
edge count, and convergence (iterations to 95%) stays the same order of
magnitude across sizes -- the step count is governed by eta and the cost
landscape, not directly by N.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from conftest import emit, host_context

from repro import (
    GradientAlgorithm,
    GradientConfig,
    build_extended_network,
    solve_lp,
)
from repro.analysis import TableBuilder, iterations_to_fraction
from repro.core.marginals import evaluate_cost
from repro.core.routing import initial_routing
from repro.obs import Instrumentation, write_metrics_json
from repro.parallel import ParallelBackend, SerialBackend
from repro.simulation import DistributedGradientRun
from repro.validate import STALENESS_DRIFT_RTOL
from repro.scenarios import random_stream_network
from repro.scenarios import RandomNetworkSpec

SIZES = [10, 20, 40, 80]
MAX_ITERATIONS = 3000

PARALLEL_ITERATIONS = 120
PARALLEL_WORKERS = 4
STALENESS = 4  # the pool's row: one round-trip per STALENESS + 1 iterations

# The number the pool's place rests on (full mode only): seconds to 95% of
# the solve_lp optimum on the 1000 x 16 scale-ladder rung, serial against a
# 2-worker pool, in alternating pairs.  The dense LP takes ~1.5 s and ~1 GiB
# on a 2-CPU host.
RUNG = (1000, 16)
RUNG_SEED = 29
RUNG_ETA = 0.02
RUNG_WORKERS = 2
RUNG_PAIRS = 3
RUNG_CHUNK = 5
RUNG_MAX_ITERATIONS = 20_000

# CI smoke mode, matching the ITERCORE_SMOKE precedent: shared runners have
# neither dedicated cores nor a stable clock, so PARALLEL_SMOKE=1 shrinks
# the run, keeps the drift gate, and skips the rung
PARALLEL_SMOKE = os.environ.get("PARALLEL_SMOKE", "") == "1"
if PARALLEL_SMOKE:
    PARALLEL_ITERATIONS = 30


def _make_ext(num_nodes: int):
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=3 if num_nodes >= 20 else 2,
        depth_range=(3, 5) if num_nodes < 40 else (4, 6),
        layer_width_range=(2, 3) if num_nodes < 40 else (3, 5),
    )
    return build_extended_network(random_stream_network(spec, seed=17))


def test_scaling_with_network_size(benchmark):
    def run_experiment():
        rows = []
        for num_nodes in SIZES:
            ext = _make_ext(num_nodes)
            lp = solve_lp(ext)
            algo = GradientAlgorithm(
                ext,
                GradientConfig(eta=0.04, max_iterations=MAX_ITERATIONS,
                               record_every=10),
            )
            start = time.perf_counter()
            result = algo.run()
            elapsed = time.perf_counter() - start
            per_iteration_us = 1e6 * elapsed / result.iterations

            protocol = DistributedGradientRun(ext, GradientConfig(eta=0.04))
            protocol.load_routing(initial_routing(ext))
            protocol.forecast_phase()
            metrics = protocol.iterate(1)

            rows.append(
                {
                    "nodes": num_nodes,
                    "ext_edges": ext.num_edges,
                    "per_iter_us": per_iteration_us,
                    "hit95": iterations_to_fraction(
                        result.recorded_iterations,
                        result.utilities,
                        lp.utility,
                        0.95,
                    ),
                    "fraction": result.solution.utility / lp.utility,
                    "msgs": metrics.messages,
                    "rounds": metrics.rounds,
                }
            )
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = TableBuilder(
        [
            "nodes",
            "ext edges",
            "us/iteration",
            "iters to 95%",
            "final of opt",
            "msgs/iter",
            "rounds/iter",
        ]
    )
    for row in rows:
        table.add_row(
            row["nodes"],
            row["ext_edges"],
            f"{row['per_iter_us']:.0f}",
            row["hit95"],
            f"{row['fraction']:.1%}",
            row["msgs"],
            row["rounds"],
        )
    emit("TAB-SCALE: gradient algorithm vs network size", table.render())

    # every size converges close to its optimum
    for row in rows:
        assert row["fraction"] >= 0.90
        assert row["hit95"] is not None

    # per-iteration cost grows sub-quadratically with the edge count
    first, last = rows[0], rows[-1]
    edge_ratio = last["ext_edges"] / first["ext_edges"]
    time_ratio = last["per_iter_us"] / first["per_iter_us"]
    assert time_ratio <= edge_ratio**2

    # iterations-to-95% stays within one order of magnitude across sizes
    hits = [row["hit95"] for row in rows]
    assert max(hits) <= 20 * min(hits)


def _make_parallel_ext():
    """The sharding-friendly instance: wide and commodity-rich.

    Per-commodity work is the parallel axis, so the instance carries more
    commodities than the TAB-SCALE sizes do; 80 physical nodes keeps each
    commodity's per-iteration kernels heavy enough that a round-trip per
    batch does not dominate.
    """
    spec = RandomNetworkSpec(
        num_nodes=24 if PARALLEL_SMOKE else 80,
        num_commodities=4 if PARALLEL_SMOKE else 8,
        depth_range=(3, 4) if PARALLEL_SMOKE else (4, 6),
        layer_width_range=(2, 3) if PARALLEL_SMOKE else (3, 5),
    )
    return build_extended_network(random_stream_network(spec, seed=17))


class _Pipeline:
    """One gradient pipeline on a backend, advanced chunk by chunk."""

    def __init__(self, ext, config, backend):
        self.backend = backend
        backend.bind(ext, config)
        self.routing = initial_routing(ext)
        self.context = backend.build_context(self.routing)

    def advance(self, iterations):
        start = time.perf_counter()
        self.routing, self.context = self.backend.advance(
            self.routing, self.context, iterations
        )
        return time.perf_counter() - start


def _seconds_to_target(ext, config, backend, target):
    """Wall-clock for ``advance(..., RUNG_CHUNK)`` from the shed-everything
    routing to reach ``target`` utility, plus the iteration it got there."""
    backend.bind(ext, config)
    routing, context = initial_routing(ext), None
    iterations = 0
    start = time.perf_counter()
    while context is None or context.breakdown.utility < target:
        assert iterations < RUNG_MAX_ITERATIONS, "never reached the target"
        routing, context = backend.advance(routing, context, RUNG_CHUNK)
        iterations += RUNG_CHUNK
    return time.perf_counter() - start, iterations


def _rung_pairs():
    """RUNG_PAIRS alternating (serial, pool) runs to 95% of the LP optimum."""
    from bench_scale_ladder import _ladder_spec

    ext = build_extended_network(
        random_stream_network(_ladder_spec(*RUNG), seed=RUNG_SEED)
    )
    target = 0.95 * solve_lp(ext).utility
    config = GradientConfig(eta=RUNG_ETA)
    serial = SerialBackend()
    with ParallelBackend(workers=RUNG_WORKERS, staleness=STALENESS) as pool:
        # warm the plans and start the pool before any clock runs
        for backend in (serial, pool):
            backend.bind(ext, config)
            backend.advance(initial_routing(ext), None, 2)
        pairs = []
        for _ in range(RUNG_PAIRS):
            pairs.append(
                (
                    _seconds_to_target(ext, config, serial, target),
                    _seconds_to_target(ext, config, pool, target),
                )
            )
    return target, pairs


def test_parallel_worker_scaling(benchmark):
    """TAB-PARALLEL: the batched-staleness pool vs the serial engine.

    * **bounded drift** -- ``staleness=4`` batches relax bit-identity, but
      the final utility stays within the oracle's documented
      STALENESS_DRIFT_RTOL of serial;
    * **per-iteration cost** -- interleaved chunks of serial and pool
      iterations give the ``speedup.stale4`` gauge;
    * **the number that keeps the pool** (full mode only) -- seconds to
      95% of the LP optimum on the 1000 x 16 rung, serial against a
      2-worker pool in alternating pairs.  Recorded as timing gauges, not
      gated: the host drifts by about 15%.
    """
    ext = _make_parallel_ext()
    # record_every bounds a batch span in the run loop; advance() chunks
    # here are multiples of the batch so every chunk is all batches
    config = GradientConfig(eta=0.04, record_every=10)
    chunk = 10
    n_chunks = PARALLEL_ITERATIONS // chunk
    stale_row = f"stale{STALENESS}"

    def run_experiment():
        with ParallelBackend(
            workers=PARALLEL_WORKERS, staleness=STALENESS
        ) as pool:
            # warm both pipelines: pool start, lazy plans, allocator churn
            _Pipeline(ext, config, SerialBackend()).advance(2)
            _Pipeline(ext, config, pool).advance(2)
            serial = _Pipeline(ext, config, SerialBackend())
            stale = _Pipeline(ext, config, pool)
            # interleaved chunks: each serial/pool pair runs back to back
            # under (nearly) the same machine conditions, so per-chunk
            # ratios are robust to CPU frequency drift across the run
            serial_times, stale_times = [], []
            for _ in range(n_chunks):
                serial_times.append(serial.advance(chunk))
                stale_times.append(stale.advance(chunk))
        rung = None if PARALLEL_SMOKE else _rung_pairs()
        return serial, stale, serial_times, stale_times, rung

    serial, stale, serial_times, stale_times, rung = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    serial_utility = evaluate_cost(ext, serial.routing, config.cost_model).utility
    stale_utility = evaluate_cost(ext, stale.routing, config.cost_model).utility
    stale_drift = abs(stale_utility - serial_utility) / max(
        abs(serial_utility), 1e-12
    )
    assert stale_drift <= STALENESS_DRIFT_RTOL, (
        f"staleness={STALENESS} drifted {stale_drift:.2e} "
        f"(bound {STALENESS_DRIFT_RTOL})"
    )

    serial_us = 1e6 * sum(serial_times) / PARALLEL_ITERATIONS
    stale_us = 1e6 * sum(stale_times) / PARALLEL_ITERATIONS
    speedup = float(np.median(np.asarray(serial_times) / np.asarray(stale_times)))
    table = TableBuilder(["backend", "us/iteration", "median speedup"])
    table.add_row("serial", f"{serial_us:.0f}", "1.0x")
    table.add_row(stale_row, f"{stale_us:.0f}", f"{speedup:.2f}x")
    body = table.render()
    if rung is not None:
        target, pairs = rung
        rung_table = TableBuilder(
            ["pair", "serial s", "iterations", f"{stale_row} x{RUNG_WORKERS} s",
             "iterations"]
        )
        for k, ((s_sec, s_it), (p_sec, p_it)) in enumerate(pairs):
            rung_table.add_row(k, f"{s_sec:.2f}", s_it, f"{p_sec:.2f}", p_it)
        body += (
            f"\n\nSeconds to 95% of the LP optimum ({target / 0.95:.6g}), "
            f"{RUNG[0]} x {RUNG[1]} rung, seed {RUNG_SEED}, eta {RUNG_ETA}:\n"
            + rung_table.render()
        )
    emit(
        "TAB-PARALLEL: the batched-staleness pool vs serial "
        f"({ext.num_commodities} commodities, {PARALLEL_ITERATIONS} iterations, "
        f"median over {n_chunks} interleaved chunks"
        + (", SMOKE)" if PARALLEL_SMOKE else ")"),
        body,
    )

    # machine-readable twin in the repro.metrics/1 schema for CI artifacts
    # and the benchmark regression gate.  Naming is load-bearing:
    # ``speedup.stale4`` is dimensionless and *gated* by
    # check_regression.py's --speedup-tolerance; every ``seconds`` and
    # ``us_per_iteration`` metric is wall-clock and exempt.
    inst = Instrumentation()
    for name, times in (("serial", serial_times), (stale_row, stale_times)):
        for chunk_s in times:
            inst.registry.histogram(f"chunk.{name}.seconds").observe(chunk_s)
    inst.gauge("us_per_iteration.serial", serial_us)
    inst.gauge(f"us_per_iteration.{stale_row}", stale_us)
    inst.gauge(f"speedup.{stale_row}", speedup)
    inst.count("iterations", PARALLEL_ITERATIONS)
    inst.count("commodities", ext.num_commodities)
    rung_context = {}
    if rung is not None:
        target, pairs = rung
        for k, ((s_sec, s_it), (p_sec, p_it)) in enumerate(pairs):
            inst.gauge(f"rung{RUNG[0]}.to95.serial.pair{k}.seconds", s_sec)
            inst.gauge(f"rung{RUNG[0]}.to95.{stale_row}.pair{k}.seconds", p_sec)
        rung_context = {
            "rung": list(RUNG),
            "rung_seed": RUNG_SEED,
            "rung_eta": RUNG_ETA,
            "rung_workers": RUNG_WORKERS,
            "rung_lp_utility": target / 0.95,
            "rung_iterations_to95": {
                "serial": pairs[0][0][1], stale_row: pairs[0][1][1],
            },
        }
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    write_metrics_json(
        inst,
        results_dir / "BENCH_PARALLEL.json",
        bench="TAB-PARALLEL",
        iterations=PARALLEL_ITERATIONS,
        chunk_size=chunk,
        workers=PARALLEL_WORKERS,
        staleness=STALENESS,
        stale_drift=stale_drift,
        host=host_context(),
        smoke=PARALLEL_SMOKE,
        **rung_context,
    )
