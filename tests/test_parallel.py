"""Tests for the execution backends (:mod:`repro.parallel`).

Two backends exist.  :class:`SerialBackend` is the engine.
:class:`ParallelBackend` inherits its ``build_context`` and ``step`` and
adds a worker pool that runs only bounded-staleness batches through
``advance`` (and epoch refreshes).  The batched iterates drift from serial
within ``STALENESS_DRIFT_RTOL``, must not depend on how commodities are
sharded, must keep one flow solve per iteration, and must surface worker
crashes as a clean :class:`repro.exceptions.ParallelExecutionError`
instead of a hang or a wedged pool.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import (
    GradientAlgorithm,
    GradientConfig,
    Instrumentation,
    ParallelExecutionError,
    build_extended_network,
    solve,
)
from repro.core.delta import apply_delta, compile_event
from repro.core.routing import initial_routing
from repro.online.events import DemandChange
from repro.parallel import ParallelBackend, SerialBackend, resolve_backend
from repro.parallel.backend import _split_shards
from repro.scenarios import random_stream_network, scenario
from repro.scenarios import RandomNetworkSpec

STALENESS = 4


def _random_ext(seed: int, num_nodes: int = 18, num_commodities: int = 3):
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(3, 4),
        layer_width_range=(2, 3),
    )
    return build_extended_network(random_stream_network(spec, seed=seed))


def _batched(backend, ext, config, chunks=4, chunk=5):
    """The phi after each ``advance(chunk)`` call from the initial routing."""
    backend.bind(ext, config)
    routing, context = initial_routing(ext), None
    states = []
    for _ in range(chunks):
        routing, context = backend.advance(routing, context, chunk)
        states.append(routing.phi.copy())
    return states


class TestBitIdentity:
    @pytest.mark.parametrize("make_backend", [ParallelBackend])
    def test_edge_shared_by_three_commodities_across_shards(self, make_backend):
        """Regression: fat-tree-16's edges 52-59 carry commodities 1, 3 and
        5, which three workers put in shards 0, 1 and 1.  Adding per-shard
        usage partials summed ``c1 + (c3 + c5)`` where one shard sums
        ``(c1 + c3) + c5``.  The master's usage call keeps the batched
        iterates independent of the sharding, bit for bit."""
        spec = scenario("fat-tree-16")
        ext = build_extended_network(spec.topology.build(spec.seed))
        config = GradientConfig()
        with make_backend(workers=1, staleness=STALENESS) as one:
            unsharded = _batched(one, ext, config, chunks=10, chunk=10)
        with make_backend(workers=3, staleness=STALENESS) as three:
            sharded = _batched(three, ext, config, chunks=10, chunk=10)
            assert three._pool_size == 3
        for chunk, (a, b) in enumerate(zip(unsharded, sharded)):
            assert np.array_equal(a, b), f"phi diverged in chunk {chunk}"

    def test_build_context_and_step_are_serial(self):
        """The pool runs only batches: the inherited serial halves of an
        iteration never start it and compute the serial engine's bits."""
        ext = _random_ext(seed=13)
        config = GradientConfig(eta=0.04)
        routing = initial_routing(ext)
        serial = SerialBackend()
        serial.bind(ext, config)
        with ParallelBackend(workers=2, staleness=STALENESS) as backend:
            backend.bind(ext, config)
            context = backend.build_context(routing)
            stepped = backend.step(routing, context=context)
            assert backend._pool is None
        expected_context = serial.build_context(routing)
        expected = serial.step(routing, context=expected_context)
        assert np.array_equal(context.traffic, expected_context.traffic)
        assert np.array_equal(context.dadf, expected_context.dadf)
        assert np.array_equal(stepped.phi, expected.phi)

    def test_step_on_batch_context_matches_fresh_context(self):
        """A batch-final context carries no dadr/delta; a step on it derives
        them without a flow solve and computes the same bits as a step on
        a freshly built context."""
        ext = _random_ext(seed=5)
        config = GradientConfig(eta=0.04)
        with ParallelBackend(workers=2, staleness=STALENESS) as backend:
            backend.bind(ext, config)
            routing, context = backend.advance(initial_routing(ext), None, 5)
            assert context.delta is None
            inst = Instrumentation()
            from_batch = backend.step(routing, context=context, instrumentation=inst)
            assert inst.registry.as_dict()["counters"].get("flow_solves", 0) == 0
            fresh = backend.build_context(routing)
            from_fresh = backend.step(routing, context=fresh)
        assert np.array_equal(context.traffic, fresh.traffic)
        assert np.array_equal(context.dadf, fresh.dadf)
        assert np.array_equal(from_batch.phi, from_fresh.phi)


class TestSolveIntegration:
    @pytest.mark.parametrize("method", ["optimal", "backpressure"])
    def test_solve_rejects_workers_for_other_methods(self, method):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        with pytest.raises(TypeError, match="workers"):
            solve(net, method=method, workers=2)

    def test_solve_workers_needs_staleness(self):
        """The pool runs only batches, so a pool without staleness and the
        retired backend names are errors, not silent fallbacks."""
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        with pytest.raises(ValueError, match="staleness"):
            solve(net, workers=2)
        with pytest.raises(ValueError):
            solve(net, backend="thread")
        with pytest.raises(TypeError, match="workers"):
            solve(net, method="distributed", workers=2, staleness=2)

    def test_flow_solve_counter_invariant(self):
        """A pooled run performs exactly as many flow solves as a serial one,
        with single-iteration spans between two-iteration batches."""
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        config = GradientConfig(
            eta=0.04, max_iterations=20, record_every=3, tolerance=0.0
        )
        inst_serial, inst_parallel = Instrumentation(), Instrumentation()
        solve(net, config=config, instrumentation=inst_serial)
        solve(
            net, config=config, instrumentation=inst_parallel,
            workers=2, staleness=1,
        )
        serial_solves = inst_serial.registry.counter("flow_solves").value
        parallel_solves = inst_parallel.registry.counter("flow_solves").value
        assert serial_solves == parallel_solves == config.max_iterations + 1
        assert inst_parallel.registry.counter("parallel.batches").value > 0

    def test_per_worker_phase_timings_recorded(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        inst = Instrumentation()
        solve(
            net,
            config=GradientConfig(eta=0.04, max_iterations=10, record_every=5),
            instrumentation=inst,
            workers=2,
            staleness=STALENESS,
        )
        histograms = inst.registry.as_dict()["histograms"]
        for worker in (0, 1):
            assert f"phase.worker{worker}.batch.seconds" in histograms
        assert "phase.parallel_batch.seconds" in histograms


def _trigger(backend: ParallelBackend, ext, phase: str) -> None:
    """Start the pool with a batch, then run ``phase`` on it."""
    config = GradientConfig(eta=0.04)
    backend.bind(ext, config)
    backend.advance(initial_routing(ext), None, 5)
    if phase == "refresh":
        name = ext.stream_network.commodities[0].name
        applied = apply_delta(ext, compile_event(ext, DemandChange(1, name, 20.0)))
        backend.refresh(applied)


class TestCrashSafety:
    @pytest.mark.parametrize("phase", ["batch", "refresh"])
    def test_worker_fault_surfaces_clean_error(self, phase):
        ext = _random_ext(seed=3)
        backend = ParallelBackend(workers=2, staleness=STALENESS, inject_fault=phase)
        try:
            with pytest.raises(ParallelExecutionError, match=phase):
                _trigger(backend, ext, phase)
            assert backend._pool is None
        finally:
            backend.close()

    def test_fault_tears_down_pool_and_shared_memory(self):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=10, record_every=5)
        backend = ParallelBackend(workers=2, staleness=STALENESS, inject_fault="batch")
        with pytest.raises(ParallelExecutionError):
            GradientAlgorithm(ext, config, backend=backend).run()
        assert backend._pool is None
        assert backend._shm is None

    def test_unbound_backend_raises(self):
        backend = ParallelBackend(workers=2, staleness=STALENESS)
        with pytest.raises(ParallelExecutionError, match="bind"):
            backend.advance(None, None, 5)


class TestBackendLifecycle:
    def test_close_is_idempotent_and_reusable(self):
        ext = _random_ext(seed=7)
        config = GradientConfig(eta=0.04)
        backend = ParallelBackend(workers=2, staleness=STALENESS)
        first = _batched(backend, ext, config)
        backend.close()
        backend.close()  # idempotent
        assert backend._pool is None
        # the pool restarts lazily after close
        again = _batched(backend, ext, config)
        assert backend._pool is not None
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        backend.close()

    def test_rebind_to_new_network(self):
        config = GradientConfig(eta=0.04)
        ext_a, ext_b = _random_ext(seed=1), _random_ext(seed=2, num_nodes=14)
        with ParallelBackend(workers=2, staleness=STALENESS) as backend:
            _batched(backend, ext_a, config, chunks=1)
            pool_a = backend._pool
            got_b = _batched(backend, ext_b, config)
            assert backend._pool is not pool_a
        with ParallelBackend(workers=2, staleness=STALENESS) as fresh:
            want_b = _batched(fresh, ext_b, config)
        for a, b in zip(got_b, want_b):
            assert np.array_equal(a, b)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelBackend(workers=0, staleness=STALENESS)

    def test_resolve_backend(self):
        assert isinstance(resolve_backend(), SerialBackend)
        backend = resolve_backend(workers=3, staleness=2)
        assert isinstance(backend, ParallelBackend)
        assert (backend.workers, backend.staleness) == (3, 2)
        explicit = SerialBackend()
        assert resolve_backend(backend=explicit) is explicit
        with pytest.raises(ValueError):
            resolve_backend(backend=explicit, workers=2, staleness=2)
        with pytest.raises(ValueError, match="staleness"):
            resolve_backend(workers=2)
        with pytest.raises(ValueError, match="staleness"):
            resolve_backend(workers=2, staleness=0)
        with pytest.raises(ValueError):
            resolve_backend(staleness=2)  # needs a pool
        with pytest.raises(ValueError):
            resolve_backend(backend="process", workers=2)
        with pytest.raises(ValueError):
            resolve_backend(workers="auto")

    def test_resolve_backend_one_worker_is_serial(self):
        """A pool of one is pure overhead: workers=1 means the serial engine."""
        assert isinstance(resolve_backend(workers=1), SerialBackend)
        assert isinstance(resolve_backend(workers=1, staleness=4), SerialBackend)

    def test_pool_clamped_to_commodity_count(self):
        """No worker process is started just to receive empty shards."""
        ext = _random_ext(seed=5, num_commodities=3)
        with ParallelBackend(workers=8, staleness=STALENESS) as backend:
            _batched(backend, ext, GradientConfig(eta=0.04), chunks=1)
            assert backend._pool_size == 3
            assert len(backend._shards) == 3
            assert backend._pool._max_workers == 3

    def test_split_shards(self):
        assert _split_shards(5, 2) == [(0, 3), (3, 5)]
        assert _split_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert _split_shards(6, 3) == [(0, 2), (2, 4), (4, 6)]
        shards = _split_shards(7, 3)
        covered = [j for lo, hi in shards for j in range(lo, hi)]
        assert covered == list(range(7))


class TestStaleness:
    """The bounded-staleness batched-dispatch contract of ParallelBackend."""

    def test_staleness_within_documented_drift_bound(self):
        """Batches relax bit-identity but not the drift bound."""
        from repro.validate import (
            STALENESS_DRIFT_RTOL,
            AlgorithmSpec,
            DifferentialOracle,
        )

        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=4
        )
        config = GradientConfig(eta=0.04, max_iterations=60, record_every=10)
        oracle = DifferentialOracle(utility_rtol=STALENESS_DRIFT_RTOL)
        report = oracle.compare(
            net,
            AlgorithmSpec(config=config, label="serial"),
            AlgorithmSpec(config=config, workers=2, staleness=4),
        )
        assert report.passed, report.summary()

    @pytest.mark.parametrize("staleness", [1, 4])
    def test_barrier_knife_edge_stays_within_drift_bound(self, staleness):
        """Regression: near the capacity barrier a batch on frozen dadf can
        overshoot into the penalty wall -- and the accumulated drift can flip
        a discrete blocked-set decision, after which even the exact full-eta
        step ascends.  Unguarded, this instance drifted ~40% from serial.
        The monotonicity guard must reject the blown-up batches (visible in
        parallel.batch_rejected) and the eta-backoff redo must keep the
        final utility inside the documented bound."""
        from repro.validate import STALENESS_DRIFT_RTOL

        net = random_stream_network(
            RandomNetworkSpec(num_nodes=20, num_commodities=3), seed=7
        )
        config = GradientConfig(eta=0.04, max_iterations=120, record_every=10)
        serial = solve(net, config=config, full_result=True)
        inst = Instrumentation()
        stale = solve(
            net, config=config, workers=2, staleness=staleness,
            full_result=True, instrumentation=inst,
        )
        drift = abs(stale.final_utility - serial.final_utility) / abs(
            serial.final_utility
        )
        assert drift <= STALENESS_DRIFT_RTOL, drift
        counters = inst.registry.as_dict()["counters"]
        assert counters.get("parallel.batch_rejected", 0) > 0
        # rejected batches are redone by the master's serial step: one
        # logical flow solve per iteration either way (backtracking trials
        # count separately)
        assert counters["flow_solves"] == config.max_iterations + 1

    def test_staleness_preserves_record_cadence(self):
        """Batches never cross a record boundary: the trajectory keeps its
        exact record_every sampling, relaxed mode or not."""
        ext = _random_ext(seed=7)
        config = GradientConfig(eta=0.04, max_iterations=40, record_every=5)
        r_serial = GradientAlgorithm(ext, config).run()
        with ParallelBackend(workers=2, staleness=3) as backend:
            r_stale = GradientAlgorithm(ext, config, backend=backend).run()
        assert [h.iteration for h in r_stale.history] == [
            h.iteration for h in r_serial.history
        ]

    def test_staleness_flow_solve_count_invariant(self):
        """Batched dispatch still performs one flow solve per iteration."""
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        config = GradientConfig(
            eta=0.04, max_iterations=20, record_every=5, tolerance=0.0
        )
        inst_serial, inst_stale = Instrumentation(), Instrumentation()
        solve(net, config=config, instrumentation=inst_serial)
        solve(net, config=config, instrumentation=inst_stale, workers=2, staleness=4)
        serial_solves = inst_serial.registry.counter("flow_solves").value
        stale_solves = inst_stale.registry.counter("flow_solves").value
        assert serial_solves == stale_solves
        assert inst_stale.registry.counter("parallel.batches").value > 0

    def test_invalid_staleness(self):
        for bad in (-1, 0, "2", True):
            with pytest.raises(ValueError):
                ParallelBackend(workers=2, staleness=bad)
        with pytest.raises(TypeError):
            ParallelBackend(workers=2)  # staleness is required
        with pytest.raises(ValueError):
            ParallelBackend(workers=2, staleness=2, inject_fault="step")

    def test_solve_staleness_requires_gradient_method(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        with pytest.raises(TypeError, match="staleness"):
            solve(net, method="distributed", staleness=2)

    def test_batch_worker_fault_surfaces_clean_error(self):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=10, record_every=5)
        backend = ParallelBackend(workers=2, staleness=4, inject_fault="batch")
        try:
            with pytest.raises(ParallelExecutionError, match="batch"):
                GradientAlgorithm(ext, config, backend=backend).run()
        finally:
            backend.close()


class TestResourceHygiene:
    """No leaked pools or shared-memory segments at interpreter exit."""

    def test_no_resource_tracker_leak_warnings(self):
        """A clean run, a crashed run, and an unclosed backend must all exit
        without resource_tracker leak warnings (the shm atexit safety net
        plus solve()'s context-managed backend lifecycle)."""
        script = textwrap.dedent(
            """
            from repro import (
                GradientAlgorithm,
                GradientConfig,
                ParallelExecutionError,
                build_extended_network,
                solve,
            )
            from repro.core.routing import initial_routing
            from repro.parallel import ParallelBackend
            from repro.scenarios import random_stream_network
            from repro.scenarios import RandomNetworkSpec

            net = random_stream_network(
                RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
            )
            config = GradientConfig(eta=0.04, max_iterations=10, record_every=5)
            solve(net, config=config, workers=2, staleness=4)  # clean path

            ext = build_extended_network(net)
            crashing = ParallelBackend(workers=2, staleness=4, inject_fault="batch")
            try:
                GradientAlgorithm(ext, config, backend=crashing).run()
            except ParallelExecutionError:
                pass  # the crash path tears pool + segments down

            leaky = ParallelBackend(workers=2, staleness=4)
            leaky.bind(ext, config)
            leaky.advance(initial_routing(ext), None, 5)
            # never closed: the atexit safety net must unlink the segments
            print("SUBPROCESS-OK")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SUBPROCESS-OK" in proc.stdout
        for marker in ("resource_tracker", "leaked", "KeyError"):
            assert marker not in proc.stderr, proc.stderr
