"""Offline replay of a live serve run's batches, split per stage.

The closed loop's responses carry the ``seq`` of the epoch that answered
them; consecutive events with one ``seq`` were one batch.  Those batches
are pushed through the daemon's session twice, in this process, batch by
batch in alternating order:

* through :class:`~repro.serve.session.ServeSession` itself -- the untraced
  reference for the tracing overhead;
* through :class:`TracedSession`, which makes the public calls
  ``ServeSession.process_batch`` makes, in the same order, each one a span.

Both must publish exactly the utility the live daemon answered with for
every batch; a batch where either differs is counted as failed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from core_trace import CoreSplit, allowed_cells

from repro import build_extended_network
from repro.core.delta import apply_delta, carry_routing, compile_event
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import feasibility_report, initial_routing
from repro.core.solution import build_solution
from repro.exceptions import ModelError
from repro.io import load_network
from repro.online.rebuild import emergency_shed
from repro.options import SolveOptions
from repro.parallel.backend import SerialBackend, resolve_backend
from repro.serve import protocol
from repro.serve.batching import merge_scalar_run, plan_batch
from repro.serve.session import SERVE_CHECKS, ServeSession
from repro.validate import InvariantChecker

# the defaults of ``python -m repro serve`` (ServeConfig and the CLI)
STEP_SIZE = 0.04
REFINE_ITERATIONS = 8
WARMUP_ITERATIONS = 200
SHED_BISECTION_STEPS = 16

STAGES = (
    "serve.plan", "delta.compile", "delta.apply_scalar", "delta.apply_structural",
    "online.shed", "core.refine", "core.solution", "validate.audit",
    "serve.publish",
)


def batch_ranges(responses: List[Optional[Dict]]) -> List[Tuple[int, int, float]]:
    """``(lo, hi, utility)`` of each batch, from the responses' ``seq``."""
    ranges: List[Tuple[int, int, float]] = []
    last = None
    for i, doc in enumerate(responses):
        seq = doc.get("seq") if doc else None
        if seq is not None and seq == last:
            lo, _, utility = ranges[-1]
            ranges[-1] = (lo, i + 1, utility)
        else:
            ranges.append((i, i + 1, doc.get("utility") if doc else None))
        last = seq
    return ranges


def _decode(line: bytes, epoch: int):
    """The event the daemon built from this request line."""
    return protocol.request_to_event(protocol.parse_request(line), at_iteration=epoch)


class TracedSession:
    """``ServeSession``'s batch path, one span per public call."""

    def __init__(self, network) -> None:
        self.config = GradientConfig(eta=STEP_SIZE)
        self.ext = build_extended_network(network)
        self.cells = allowed_cells(self.ext)
        backend = resolve_backend(None, None, ext=self.ext, staleness=None)
        if not isinstance(backend, SerialBackend):
            # the traced refine re-implements SerialBackend.advance
            raise ModelError(f"replay needs the serial backend, got {backend.name}")
        self.backend = backend
        self.algo = GradientAlgorithm(self.ext, self.config, backend=backend)
        self.routing, _ = backend.advance(
            initial_routing(self.ext), None, WARMUP_ITERATIONS, eta=self.config.eta
        )
        self.refined_total = WARMUP_ITERATIONS
        self.core = CoreSplit()
        self.seconds: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self.session_s = 0.0
        self.counts = {"scalar": 0, "structural": 0, "coalesced": 0}

    def _apply(self, delta) -> None:
        start = time.perf_counter()
        old = self.ext
        applied = apply_delta(self.ext, delta)
        self.ext = applied.ext
        self.routing = carry_routing(old, self.routing, self.ext, applied.maps)
        self.algo.refresh(applied)
        kind = "structural" if applied.structural else "scalar"
        self.seconds[f"delta.apply_{kind}"] += time.perf_counter() - start
        self.counts[kind] += 1

    def _compile(self, unit):
        start = time.perf_counter()
        try:
            if len(unit) > 1:
                return merge_scalar_run(self.ext, unit)
            return compile_event(self.ext, unit[0])
        finally:
            self.seconds["delta.compile"] += time.perf_counter() - start

    def process(self, events) -> Tuple[float, bool]:
        """One batch; returns the published utility and the audit verdict."""
        clock = time.perf_counter
        s = self.seconds
        begin = clock()
        units = plan_batch(events)
        s["serve.plan"] += clock() - begin
        applied_any = False
        for unit in units:
            try:
                delta = self._compile(unit)
            except ModelError:
                for event in unit if len(unit) > 1 else ():
                    try:
                        delta = self._compile([event])
                    except ModelError:
                        continue
                    self._apply(delta)
                    applied_any = True
                continue
            if len(unit) > 1:
                self.counts["coalesced"] += len(unit)
            self._apply(delta)
            applied_any = True
        t0 = clock()
        if applied_any:
            self.routing = emergency_shed(
                self.ext, self.routing, bisection_steps=SHED_BISECTION_STEPS
            )
        t1 = clock()
        self.routing = self.core.advance(
            self.ext, self.config, self.routing, REFINE_ITERATIONS
        )
        self.refined_total += REFINE_ITERATIONS
        t2 = clock()
        solution = build_solution(
            self.ext, self.routing, self.config.cost_model,
            method="gradient-serve", iterations=self.refined_total,
        )
        t3 = clock()
        report = InvariantChecker(self.ext, checks=SERVE_CHECKS).check_solution(solution)
        t4 = clock()
        feasibility_report(self.ext, self.routing)
        t5 = clock()
        s["online.shed"] += t1 - t0
        s["core.refine"] += t2 - t1
        s["core.solution"] += t3 - t2
        s["validate.audit"] += t4 - t3
        s["serve.publish"] += t5 - t4
        self.session_s += t5 - begin
        return solution.utility, bool(report.passed)


def replay_split(model_path, lines: List[bytes], responses) -> Tuple[Dict, int, int]:
    """Per-stage metrics, failed-batch count and batch count of a closed loop."""
    ranges = batch_ranges(responses)
    network = load_network(model_path)

    session = ServeSession(
        network,
        SolveOptions(method="gradient", config=GradientConfig(eta=STEP_SIZE)),
        refine_iterations=REFINE_ITERATIONS,
        warmup_iterations=WARMUP_ITERATIONS,
    )
    traced = TracedSession(load_network(model_path))
    plain_s = 0.0
    mismatches = 0
    try:
        session.warmup()
        # ABBA order per batch: both replays run under the same host speed,
        # so the difference of their times is the tracing overhead
        for k, (lo, hi, live) in enumerate(ranges):
            plain_batch = [_decode(line, session.current_epoch()) for line in lines[lo:hi]]
            traced_batch = [_decode(line, traced.ext.epoch) for line in lines[lo:hi]]
            if k % 4 in (1, 2):
                utility, passed = traced.process(traced_batch)
            start = time.perf_counter()
            _, snapshot = session.process_batch(plain_batch)
            plain_s += time.perf_counter() - start
            if k % 4 in (0, 3):
                utility, passed = traced.process(traced_batch)
            if not (passed and utility == live and snapshot.utility == live):
                mismatches += 1
    finally:
        session.close()

    n = len(ranges)
    per_batch = {f"{name}_ms": 1e3 * sec / n for name, sec in traced.seconds.items()}
    layer = dict(per_batch)
    layer.update(traced.core.metrics())
    layer["core.cells"] = float(traced.cells)
    layer["serve.session_ms"] = 1e3 * traced.session_s / n
    layer["serve.session.coverage"] = sum(traced.seconds.values()) / traced.session_s
    layer["serve.batches"] = float(n)
    layer["serve.batch_size"] = len(lines) / n
    layer["delta.scalar_count"] = float(traced.counts["scalar"])
    layer["delta.structural_count"] = float(traced.counts["structural"])
    layer["serve.events_coalesced"] = float(traced.counts["coalesced"])
    layer["trace.untraced_s"] = plain_s
    layer["trace.traced_s"] = traced.session_s
    layer["trace.overhead_pct"] = 100.0 * (traced.session_s - plain_s) / plain_s
    return layer, mismatches, n
