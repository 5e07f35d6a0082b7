"""TAB-SERVE -- admission-control-as-a-service throughput and latency.

The serve daemon (``repro.serve``) puts the delta core behind a TCP
protocol: the optimizer group-commits requests (the moment it is free it
takes everything queued), each batch is applied as few ``ProblemDelta``s,
refined by the warm gradient engine, and published only after the
invariant audit passes.  This bench boots the daemon on the 120-node
churn workload, replays a mixed churn trace through the pipelined client
driver, and records sustained events/sec plus admission-decision latency
quantiles into ``BENCH_SERVE.json``.

Correctness in every mode: zero request errors, zero epoch-validation
failures (every published epoch passed ``InvariantChecker``), and the
daemon reports healthy after the replay.

Timing gates (dedicated bench host only, SERVE_SMOKE=1 drops them):

* sustained throughput >= 200 events/sec through one pipelined connection,
* p99 admission-decision latency (request hits the socket -> response
  read) under 50 ms,

with the paper-scale setup: 120 nodes, 12 commodities, and the serial
engine.

The trace is a *serving* mix: rate adaptation (demand/capacity, the
paper's Section V case) dominates, with session churn and failures as the
structural minority.  Scalar events coalesce into merged deltas, so the
steady-state cost per batch is one structural splice plus one refine;
that is what makes the latency bar reachable.
"""

from __future__ import annotations

import os
from pathlib import Path

from conftest import emit, host_context

from repro.analysis import TableBuilder
from repro.obs import Instrumentation, write_metrics_json
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import ServeClient, replay_trace
from repro.scenarios import SERVE_WEIGHTS, scenario

NUM_NODES = 120
NUM_COMMODITIES = 12
NUM_EVENTS = 240

MAX_BATCH = 20
PIPELINE = 32  # client-side in-flight requests
REFINE_ITERATIONS = 6
WARMUP_ITERATIONS = 200

# the serving mix (SERVE_WEIGHTS, shared with the scenario catalog):
# demand/capacity adaptation dominates (merged into few scalar deltas per
# batch); arrivals/departures/failures are the structural minority that
# pays a splice each
assert SERVE_WEIGHTS["demand"] == 8.0  # the catalog owns the mix now

MIN_EVENTS_PER_SEC = 200.0
MAX_P99_MS = 50.0
ROUNDS = 2  # timing gates take the best round (correctness holds on all)

# CI smoke mode, matching CHURN_SMOKE and friends: shared runners keep the
# correctness assertions (zero errors, every epoch validated) but not the
# wall-clock bars; the workload shrinks so the job stays fast
SERVE_SMOKE = os.environ.get("SERVE_SMOKE", "") == "1"
if SERVE_SMOKE:
    NUM_NODES, NUM_COMMODITIES, NUM_EVENTS = 30, 6, 200
    REFINE_ITERATIONS = 4
    WARMUP_ITERATIONS = 80
    ROUNDS = 1  # no timing gates in smoke, so no best-of filtering either

# the catalog entries pin the historical seeds (network 21, trace 22), so
# the committed BENCH_SERVE.json baselines stay bit-for-bit valid
SCENARIO_NAME = "serve-smoke-30" if SERVE_SMOKE else "serve-mix-120"


def test_serve_throughput(benchmark):
    compiled = scenario(SCENARIO_NAME).compile()
    network = compiled.network
    events = compiled.events
    assert len(events) == NUM_EVENTS
    config = ServeConfig(
        max_batch=MAX_BATCH,
        refine_iterations=REFINE_ITERATIONS,
        warmup_iterations=WARMUP_ITERATIONS,
        validate_epochs=True,
    )

    def run_once():
        thread = ServerThread(network, config=config)
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                report = replay_trace(client, events, pipeline=PIPELINE)
                stats = client.stats()
        finally:
            thread.stop()
        return report, stats

    def run_experiment():
        # best-of-N over fresh daemons: correctness must hold on *every*
        # round (asserted below); the timing gates take the best round,
        # which filters one-off scheduler/GC noise on shared hosts without
        # hiding a real regression (a regression slows every round)
        return [run_once() for __ in range(ROUNDS)]

    rounds = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for round_report, round_stats in rounds:
        assert round_report.events == len(events)
        assert round_report.errors == 0, f"{round_report.errors} request errors"
        assert round_stats["stats"]["validation_failures"] == 0, (
            "published epochs failed the invariant audit"
        )
    report, stats = min(rounds, key=lambda pair: pair[0].p99_ms)

    # correctness in every mode
    counters = stats["stats"]
    assert stats["validated"] is True  # the final epoch carries a passed audit
    assert stats["healthy"] is True
    assert stats["draining"] is False
    assert counters["batches"] >= 1
    assert report.final_epoch >= 1

    batches = counters["batches"]
    mean_batch = report.events / batches
    table = TableBuilder(["metric", "value"])
    table.add_row("events replayed", report.events)
    table.add_row("events/sec", f"{report.events_per_second:.1f}")
    table.add_row("latency p50", f"{report.p50_ms:.1f} ms")
    table.add_row("latency p99", f"{report.p99_ms:.1f} ms")
    table.add_row("batches", batches)
    table.add_row("mean batch size", f"{mean_batch:.1f}")
    table.add_row("final epoch", report.final_epoch)
    table.add_row("admitted / rejected", f"{report.accepted} / {report.rejected}")
    emit(
        "TAB-SERVE: admission daemon throughput "
        f"({NUM_NODES} nodes, {NUM_COMMODITIES} commodities, "
        f"{len(events)} events, max batch {MAX_BATCH}"
        + (", SMOKE)" if SERVE_SMOKE else ")"),
        table.render(),
    )

    # machine-readable twin (repro.metrics/1) for CI artifacts and the
    # regression gate; serve.* gauges are dimensionless-ish run properties
    # gated like speedup.* (generous tolerance), the latency histogram's
    # sample count is the deterministic invariant
    inst = Instrumentation()
    inst.count("events.total", report.events)
    inst.count("events.accepted", report.accepted)
    inst.count("events.rejected", report.rejected)
    for seconds in report.latencies:
        inst.registry.histogram("serve.request.seconds").observe(seconds)
    inst.gauge("serve.events_per_sec", report.events_per_second)
    inst.gauge("serve.latency_p50_ms", report.p50_ms)
    inst.gauge("serve.latency_p99_ms", report.p99_ms)
    inst.gauge("serve.batches", float(batches))
    inst.gauge("serve.mean_batch_size", mean_batch)
    inst.gauge("serve.final_epoch", float(report.final_epoch))
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    write_metrics_json(
        inst,
        results_dir / "BENCH_SERVE.json",
        bench="TAB-SERVE",
        num_nodes=NUM_NODES,
        num_commodities=NUM_COMMODITIES,
        num_events=len(events),
        pipeline=PIPELINE,
        smoke=SERVE_SMOKE,
        host=host_context(),
    )

    if not SERVE_SMOKE:
        assert report.events_per_second >= MIN_EVENTS_PER_SEC, (
            f"{report.events_per_second:.1f} events/s < {MIN_EVENTS_PER_SEC}"
        )
        assert report.p99_ms <= MAX_P99_MS, (
            f"p99 {report.p99_ms:.1f} ms > {MAX_P99_MS} ms"
        )


def test_serve_diurnal_soak():
    """Serving soak against a non-stationary day/night demand curve.

    Replays the ``serve-diurnal-30`` scenario (staggered sinusoidal
    multipliers per commodity) through a live daemon: pure correctness --
    zero request errors, every published epoch audited -- no timing
    gates, so it runs identically in smoke and full mode.
    """
    compiled = scenario("serve-diurnal-30").compile()
    config = ServeConfig(
        max_batch=MAX_BATCH,
        refine_iterations=REFINE_ITERATIONS,
        warmup_iterations=WARMUP_ITERATIONS,
        validate_epochs=True,
    )
    thread = ServerThread(compiled.network, config=config)
    port = thread.start()
    try:
        with ServeClient("127.0.0.1", port) as client:
            report = replay_trace(client, compiled.events, pipeline=PIPELINE)
            stats = client.stats()
    finally:
        thread.stop()

    assert report.events == len(compiled.events)
    assert report.errors == 0, f"{report.errors} request errors"
    assert report.rejected == 0  # demand drift is never rejected
    assert stats["stats"]["validation_failures"] == 0
    assert stats["healthy"] is True
    emit(
        "TAB-SERVE-DIURNAL: day/night soak (serve-diurnal-30, "
        f"{report.events} demand events)",
        f"events/sec {report.events_per_second:.1f}  "
        f"p50 {report.p50_ms:.1f} ms  p99 {report.p99_ms:.1f} ms  "
        f"final epoch {report.final_epoch}",
    )
