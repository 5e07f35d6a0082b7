"""Execution backends for the gradient engine: serial and process-parallel.

The paper's distributed algorithm is embarrassingly parallel across
commodities within an iteration: given the routing state ``phi`` and the
global link-cost derivative ``dadf``, each commodity's flow balance,
marginal-cost wave, blocked sets and ``Gamma`` update touch only its own
rows.  :class:`ParallelBackend` shards that per-commodity work across a
:class:`~concurrent.futures.ProcessPoolExecutor`, keeping the iterates
**bit-identical** to the serial engine:

* workers run the :class:`~repro.core.state.ModelState` row-block
  kernels (``solve_traffic_block``, ``marginal_costs_block``,
  ``edge_marginals_block``, ``blocked_sets_block`` and ``apply_gamma_batch``
  over the block's rows of the merged plan): the serial engine's own
  sweeps restricted to a contiguous commodity range;
* the only cross-commodity coupling -- summing per-commodity resource usage
  into ``edge_usage`` (eq. (4)) -- runs on the master after every shard has
  returned, as the *same* ``resource_usage`` call over the same bits as the
  serial path, regardless of worker completion order;
* everything else the master computes (cost breakdown, ``dadf``) runs the
  identical serial functions on those identical bits.

:class:`SerialBackend` is the default and is a verbatim move of the previous
inline code paths of :class:`~repro.core.gradient.GradientAlgorithm`, so
``backend=None`` is a zero-behavior change.

See ``docs/parallelism.md`` for the design discussion and when sharding
actually pays off.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocking import compute_all_blocked_sets
from repro.core.context import IterationContext, build_iteration_context
from repro.core.gradient import GradientConfig, apply_gamma_batch
from repro.core.marginals import evaluate_cost, link_cost_derivative
from repro.core.routing import RoutingState, resource_usage
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ParallelExecutionError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.parallel.shm import SharedArraySet
from repro.parallel.worker import init_worker, run_shard

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ParallelBackend",
    "resolve_backend",
    "auto_backend",
    "available_cpus",
    "BACKEND_NAMES",
    "REPRO_BACKEND_ENV",
]


# eta halvings the batched dispatch may spend rescuing one rejected-batch
# redo step before settling for the least-bad trial (see
# ParallelBackend.advance): 4 halvings reach eta/16, far below the scale at
# which the blocked-set discontinuities that cause rejections operate
_REDO_MAX_BACKOFFS = 4


class ExecutionBackend:
    """Interface every execution backend implements.

    A backend is *bound* to one ``(ExtendedNetwork, GradientConfig)`` pair by
    the algorithm that owns it, then asked for the two halves of an
    iteration: :meth:`build_context` (the flow solve and everything derived
    from it) and :meth:`step` (one application of the update map ``Gamma``).
    Backends must keep iterates bit-identical to :class:`SerialBackend`.
    """

    name = "abstract"
    workers = 1
    # how many iterations the backend may run between global ``dadf``
    # refreshes: 0 means fully synchronous (bit-identical to serial); K > 0
    # is the bounded-staleness relaxed mode of the process backend
    staleness = 0

    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        raise NotImplementedError

    def build_context(
        self,
        routing: RoutingState,
        instrumentation: Any = None,
        with_derivatives: bool = True,
    ) -> IterationContext:
        raise NotImplementedError

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation: Any = None,
    ) -> RoutingState:
        raise NotImplementedError

    def refresh(self, applied: Any, instrumentation: Any = None) -> None:
        """Advance the bound model one epoch without rebinding.

        ``applied`` is a :class:`repro.core.delta.AppliedDelta`.  Unlike
        :meth:`bind` with a new network -- which tears pooled resources
        down -- a refresh republishes only what the delta dirtied, so a
        parallel backend keeps its worker pool and its unchanged
        shared-memory segments alive.
        """
        raise NotImplementedError

    def advance(
        self,
        routing: RoutingState,
        context: Optional[IterationContext],
        iterations: int,
        eta: Optional[float] = None,
        instrumentation: Any = None,
    ) -> Tuple[RoutingState, IterationContext]:
        """Run ``iterations`` gradient iterations, returning the final pair.

        The default is the synchronous loop -- one :meth:`step` plus one
        :meth:`build_context` per iteration, the exact calls the run loop
        would make itself, so overriding backends relax *only* what their
        documented contract allows.  :class:`ParallelBackend` with
        ``staleness=K`` overrides this to execute up to ``K + 1``
        iterations per worker round-trip with a frozen global ``dadf``
        (see docs/parallelism.md for the bounded-staleness contract).
        """
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        for _ in range(iterations):
            routing = self.step(
                routing, eta=eta, context=context, instrumentation=instrumentation
            )
            context = self.build_context(routing, instrumentation=instrumentation)
        return routing, context

    def close(self) -> None:
        """Release any pooled resources; safe to call repeatedly."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The in-process reference backend (the previous inline code paths)."""

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        self._ext: Optional[ExtendedNetwork] = None
        self._config: Optional[GradientConfig] = None

    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        self._ext = ext
        self._config = config

    def refresh(self, applied: Any, instrumentation: Any = None) -> None:
        self._ext = applied.ext

    def build_context(
        self,
        routing: RoutingState,
        instrumentation: Any = None,
        with_derivatives: bool = True,
    ) -> IterationContext:
        return build_iteration_context(
            self._ext,
            routing,
            self._config.cost_model,
            with_derivatives=with_derivatives,
            instrumentation=instrumentation,
        )

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation: Any = None,
    ) -> RoutingState:
        ext = self._ext
        cfg = self._config
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        if eta is None:
            eta = cfg.eta
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        new_phi = routing.phi.copy()

        blocked: Optional[np.ndarray]
        if cfg.use_blocking:
            with inst.phase("blocking"):
                blocked = compute_all_blocked_sets(
                    ext, routing, context.traffic, context.dadr, context.delta, eta
                ).reshape(-1)
            if not blocked.any():
                # an empty blocked set is indistinguishable from no blocking;
                # let the kernel take its cheaper unblocked path
                blocked = None
        else:
            blocked = None
        # one kernel call for every commodity: the merged plan's flattened
        # (j*V + v, j*E + e) ids index the raveled views below
        with inst.phase("gamma"):
            apply_gamma_batch(
                new_phi.reshape(-1),
                ext.merged_gamma_plan,
                context.traffic.reshape(-1),
                context.delta.reshape(-1),
                blocked,
                eta,
                cfg.traffic_tol,
            )

        return RoutingState(new_phi)


def _segment_shapes(ext: ExtendedNetwork) -> Dict[str, Tuple[int, ...]]:
    """The shared-memory segments a process pool over ``ext`` publishes."""
    shape_je = (ext.num_commodities, ext.num_edges)
    return {
        "phi": shape_je,
        "phi_next": shape_je,
        "traffic": (ext.num_commodities, ext.num_nodes),
        "dadf": (ext.num_edges,),
    }


def _split_shards(num_commodities: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal commodity ranges, one per logical worker.

    Contiguity matters: a shard is a contiguous row-block of every
    :class:`~repro.core.state.ModelState` array, and the bit-identity
    argument relies on every commodity being computed exactly once.
    """
    n = max(1, min(workers, num_commodities))
    base, extra = divmod(num_commodities, n)
    shards: List[Tuple[int, int]] = []
    lo = 0
    for k in range(n):
        hi = lo + base + (1 if k < extra else 0)
        shards.append((lo, hi))
        lo = hi
    return shards


class ParallelBackend(ExecutionBackend):
    """Process-parallel sharded execution of the gradient iteration.

    Parameters
    ----------
    workers:
        Worker process count (default: ``os.cpu_count()``).  The effective
        pool size is capped at the commodity count -- the sharding axis.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ...); default: the platform default.
    inject_fault:
        Test hook: the name of a worker phase (``"forecast"`` / ``"step"`` /
        ``"batch"``) in which every worker raises, to exercise crash
        cleanup.  Never set this outside tests.
    staleness:
        Batched-dispatch relaxation (default 0).  With ``staleness=K`` the
        run loop may execute up to ``K + 1`` iterations per worker
        round-trip: workers iterate privately on their own commodity rows
        with the global link-cost derivative ``dadf`` frozen at the batch
        start (at most ``K`` iterations stale), which is exactly the
        tolerance the paper's Section-5 asynchronous protocol grants and
        ``benchmarks/bench_stale_marginals.py`` quantifies.  ``staleness=0``
        keeps today's two-dispatches-per-iteration schedule and the
        bit-identity guarantee.

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and the shared-memory blocks deterministically.
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        inject_fault: Optional[str] = None,
        staleness: int = 0,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not isinstance(staleness, int) or isinstance(staleness, bool) or staleness < 0:
            raise ValueError(f"staleness must be a non-negative int, got {staleness!r}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.staleness = staleness
        self._start_method = start_method
        self._inject_fault = inject_fault
        self._ext: Optional[ExtendedNetwork] = None
        self._config: Optional[GradientConfig] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shm: Optional[SharedArraySet] = None
        self._shards: List[Tuple[int, int]] = []
        self._loaded_for: Optional[RoutingState] = None
        # fixed for the pool's lifetime; later refreshes re-shard within it
        self._pool_size: int = 0
        self._barrier: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------------------
    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        if ext is self._ext and config is self._config:
            return
        if self._pool is not None:
            # rebinding to a new problem invalidates the published arrays
            self.close()
        self._ext = ext
        self._config = config

    def _ensure_started(self) -> None:
        if self._pool is not None:
            return
        if self._ext is None:
            raise ParallelExecutionError(
                "ParallelBackend used before bind(); construct it via "
                "GradientAlgorithm(..., backend=...) or call bind(ext, config)"
            )
        ext = self._ext
        # build the ModelState and the merged Gamma plan once on the master
        # so the pickled network the workers receive already carries them
        ModelState.of(ext)
        _ = ext.merged_gamma_plan
        shm = SharedArraySet()
        try:
            self._shards = _split_shards(ext.num_commodities, self.workers)
            self._pool_size = len(self._shards)
            for name, shape in _segment_shapes(ext).items():
                shm.create(name, shape)
            import multiprocessing

            ctx = (
                multiprocessing.get_context(self._start_method)
                if self._start_method
                else multiprocessing.get_context()
            )
            # the barrier is the exactly-once delivery mechanism of
            # refresh(): every worker blocks in its refresh task until all
            # pool members have received theirs
            self._barrier = ctx.Barrier(self._pool_size)
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size,
                initializer=init_worker,
                initargs=(ext, shm.specs, self._inject_fault, self._barrier),
                mp_context=ctx,
            )
        except BaseException:
            shm.close()
            raise
        self._shm = shm

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()
        self._loaded_for = None
        self._barrier = None
        self._pool_size = 0

    def __del__(self) -> None:  # best-effort safety net; close() is the API
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------------
    def _collect(self, phase: str, futures: List[Future]) -> List[Any]:
        results: List[Any] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # worker death raises BrokenProcessPool
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            # the pool may be broken; tear everything down so the caller is
            # left with a clean error instead of a wedged executor
            self.close()
            raise ParallelExecutionError(
                f"parallel worker failed during the {phase!r} phase: "
                f"{first_error!r} (the worker pool has been shut down)"
            ) from first_error
        return results

    def _dispatch(self, phase: str, args: Sequence[Any] = ()) -> List[Any]:
        assert self._pool is not None
        futures: List[Future] = [
            self._pool.submit(run_shard, phase, lo, hi, *args)
            for lo, hi in self._shards
        ]
        return self._collect(phase, futures)

    # -- epoch refresh -------------------------------------------------------------
    def refresh(self, applied: Any, instrumentation: Any = None) -> None:
        """Advance the pool to the delta's epoch without restarting it.

        Scalar deltas ship the few-byte patch; every worker applies it to
        its own network copy and no shared memory moves.  Structural deltas
        ship the spliced successor network and re-publish only the
        shared-memory segments whose shape actually changed.  Exactly-once
        delivery is enforced by a pool-wide barrier: each worker blocks in
        its refresh task until all ``_pool_size`` tasks have landed, so the
        executor cannot hand two of them to one worker.
        """
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        ext = applied.ext
        if self._pool is None:
            # nothing published yet: adopt the new epoch and start lazily
            self._ext = ext
            return
        if applied.structural:
            # build the plans before pickling, as _ensure_started does
            ModelState.of(ext)
            _ = ext.merged_gamma_plan
            shm = self._shm
            shapes = _segment_shapes(ext)
            dirty = [
                name
                for name, shape in shapes.items()
                if shm.arrays[name].shape != shape
            ]
            for name in dirty:
                shm.replace(name, shapes[name])
            payload = ("ext", ext, shm.specs if dirty else None, ext.epoch)
            self._shards = _split_shards(ext.num_commodities, self._pool_size)
            if inst.enabled:
                inst.count("parallel.refresh.segments_republished", len(dirty))
        else:
            payload = ("patch", applied.delta.scalar, None, ext.epoch)
        with inst.phase("parallel_refresh", epoch=ext.epoch):
            assert self._pool is not None
            futures = [
                self._pool.submit(run_shard, "refresh", k, k, payload)
                for k in range(self._pool_size)
            ]
            results = self._collect("refresh", futures)
        self._observe_worker_timings(inst, results)
        self._ext = ext
        self._loaded_for = None
        inst.count("parallel.refresh")

    def _observe_worker_timings(self, inst: Any, results: List[Any]) -> None:
        if not inst.enabled:
            return
        for worker_index, (_lo, timings) in enumerate(results):
            for name, duration in timings.items():
                inst.phase_observation(
                    f"worker{worker_index}.{name}", duration, worker=worker_index
                )

    # -- the two iteration halves ----------------------------------------------------
    def build_context(
        self,
        routing: RoutingState,
        instrumentation: Any = None,
        with_derivatives: bool = True,
    ) -> IterationContext:
        """Parallel flow solve + master-side reduce and cost evaluation.

        The returned context always carries ``dadf`` but never ``dadr`` /
        ``delta``: the parallel :meth:`step` recomputes the per-commodity
        derivative wave inside the workers (one fewer synchronisation
        barrier per iteration).
        """
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._ensure_started()
        ext = self._ext
        cfg = self._config
        arrays = self._shm.arrays
        with inst.phase("flow_solve"):
            np.copyto(arrays["phi"], routing.phi)
            results = self._dispatch("forecast")
            traffic = arrays["traffic"].copy()
            # usage sums across commodities: the serial call, once every
            # shard has returned (a per-shard partial would change the
            # association on edges that commodities in two shards share)
            edge_usage, node_usage = resource_usage(ext, routing, traffic)
            breakdown = evaluate_cost(
                ext, routing, cfg.cost_model, traffic, usage=(edge_usage, node_usage)
            )
            dadf = link_cost_derivative(ext, cfg.cost_model, edge_usage, node_usage)
            np.copyto(arrays["dadf"], dadf)
        inst.count("flow_solves")
        if inst.enabled:
            inst.gauge("parallel.workers", float(len(self._shards)))
        self._observe_worker_timings(inst, results)
        self._loaded_for = routing
        return IterationContext(
            routing=routing,
            traffic=traffic,
            edge_usage=edge_usage,
            node_usage=node_usage,
            breakdown=breakdown,
            dadf=dadf if with_derivatives else None,
            dadr=None,
            delta=None,
        )

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation: Any = None,
    ) -> RoutingState:
        """One application of ``Gamma``, sharded across the worker pool."""
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._ensure_started()
        cfg = self._config
        if eta is None:
            eta = cfg.eta
        if context is None or self._loaded_for is not routing:
            # the shared traffic/dadf buffers describe some other routing
            # state; refresh them for this one
            self.build_context(routing, instrumentation=instrumentation)
        arrays = self._shm.arrays
        with inst.phase("parallel_step"):
            np.copyto(arrays["phi"], routing.phi)
            results = self._dispatch(
                "step", (eta, cfg.use_blocking, cfg.traffic_tol)
            )
            new_phi = arrays["phi_next"].copy()
        self._observe_worker_timings(inst, results)
        return RoutingState(new_phi)

    def advance(
        self,
        routing: RoutingState,
        context: Optional[IterationContext],
        iterations: int,
        eta: Optional[float] = None,
        instrumentation: Any = None,
    ) -> Tuple[RoutingState, IterationContext]:
        """Batched dispatch: up to ``staleness + 1`` iterations per round-trip.

        Within one batch every worker iterates privately on its own
        commodity rows -- re-solving its local flow balance and re-applying
        ``Gamma`` each inner iteration -- while the global ``dadf`` stays
        frozen at its batch-start value (at most ``staleness`` iterations
        old).  After the batch the master computes usage as usual and
        recomputes a *fresh* ``dadf``, so staleness never
        accumulates across batches.  With ``staleness=0`` this is exactly
        the synchronous per-iteration schedule (bit-identical to serial).

        Every batch is guarded by a monotonicity check: if the batch-final
        penalised cost exceeds the batch-start cost, the frozen derivative
        overshot (this happens near the capacity barrier, where ``dadf``
        steepens faster than any bounded-staleness estimate can track) and
        the whole batch is discarded and the span re-run on the synchronous
        per-iteration schedule.  Accepting such a batch is how a "2% drift"
        mode turns into a 40% utility regression; rejecting it costs one
        wasted round-trip and keeps the drift bound honest
        (``parallel.batch_rejected`` counts the rollbacks).
        """
        if self.staleness <= 0 or iterations <= 1:
            return super().advance(
                routing, context, iterations, eta=eta,
                instrumentation=instrumentation,
            )
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._ensure_started()
        ext = self._ext
        cfg = self._config
        if eta is None:
            eta = cfg.eta
        done = 0
        while done < iterations:
            span = min(self.staleness + 1, iterations - done)
            if context is None or self._loaded_for is not routing:
                # the shared traffic/dadf buffers describe some other
                # routing state; refresh them for this one
                context = self.build_context(routing, instrumentation=instrumentation)
            if span == 1:
                routing = self.step(
                    routing, eta=eta, context=context, instrumentation=instrumentation
                )
                context = self.build_context(routing, instrumentation=instrumentation)
                done += 1
                continue
            previous, previous_context = routing, context
            arrays = self._shm.arrays
            with inst.phase("parallel_batch", iterations=span):
                np.copyto(arrays["phi"], routing.phi)
                results = self._dispatch(
                    "batch", (span, eta, cfg.use_blocking, cfg.traffic_tol)
                )
                new_phi = arrays["phi_next"].copy()
                # same master-side usage and derivative as the synchronous
                # build_context, over the batch-final rows
                traffic = arrays["traffic"].copy()
                routing = RoutingState(new_phi)
                edge_usage, node_usage = resource_usage(ext, routing, traffic)
                breakdown = evaluate_cost(
                    ext, routing, cfg.cost_model, traffic,
                    usage=(edge_usage, node_usage),
                )
                dadf = link_cost_derivative(
                    ext, cfg.cost_model, edge_usage, node_usage
                )
                np.copyto(arrays["dadf"], dadf)
            self._observe_worker_timings(inst, results)
            if breakdown.total > previous_context.breakdown.total * (1 + 1e-9):
                # the frozen dadf overshot: discard the batch and redo the
                # span synchronously from the batch-start iterate.  The
                # batch clobbered the shared traffic/dadf buffers, so
                # restore them to match previous_context before stepping
                # (_loaded_for still points at `previous`).
                inst.count("parallel.batch_rejected")
                np.copyto(arrays["traffic"], previous_context.traffic)
                np.copyto(arrays["dadf"], previous_context.dadf)
                routing, context = previous, previous_context
                for _ in range(span):
                    # Safeguarded synchronous step.  The knife-edge states
                    # that trigger batch rejection sit on a blocked-set
                    # boundary where even the *exact* full-eta step can
                    # ascend (the accumulated drift flips a discrete
                    # blocking decision and Gamma reroutes a large flow
                    # share at once), so backtrack eta until the penalised
                    # cost stops increasing.  Trial evaluations run
                    # master-side and never touch the shared buffers, so
                    # each retry redispatches the same restored state.
                    best_routing, best_cost = None, np.inf
                    step_eta = eta
                    for _attempt in range(_REDO_MAX_BACKOFFS + 1):
                        candidate = self.step(
                            routing, eta=step_eta, context=context,
                            instrumentation=instrumentation,
                        )
                        cand_cost = evaluate_cost(
                            ext, candidate, cfg.cost_model
                        ).total
                        if cand_cost < best_cost:
                            best_routing, best_cost = candidate, cand_cost
                        if cand_cost <= context.breakdown.total * (1 + 1e-9):
                            break
                        inst.count("parallel.batch_backoffs")
                        step_eta *= 0.5
                    routing = best_routing
                    context = self.build_context(
                        routing, instrumentation=instrumentation
                    )
                done += span
                continue
            # each inner iteration re-solved every commodity's flow balance
            inst.count("flow_solves", span)
            inst.count("parallel.batches")
            self._loaded_for = routing
            context = IterationContext(
                routing=routing,
                traffic=traffic,
                edge_usage=edge_usage,
                node_usage=node_usage,
                breakdown=breakdown,
                dadf=dadf,
                dadr=None,
                delta=None,
            )
            done += span
        return routing, context


# -- backend selection ---------------------------------------------------------------

BACKEND_NAMES = ("serial", "thread", "process", "auto")

# environment default for resolve_backend() when neither backend= nor
# workers= is passed -- how the CI tier-1 matrix runs the whole suite on the
# threaded backend without touching call sites
REPRO_BACKEND_ENV = "REPRO_BACKEND"

# auto-selection thresholds, calibrated on the TAB-PARALLEL instances (see
# docs/parallelism.md for the measurements).  ``work cells`` is the size
# proxy J * (E + V): the per-commodity kernel work of one iteration touches
# each commodity's edge and node rows about once.  The serial engine's
# full-width sweeps amortise Python/NumPy dispatch across commodities, so a
# sharded backend starts ~3x behind on small instances and only wins once
# per-shard array work dominates -- hence thresholds well above the sizes
# where serial finishes an iteration in a few hundred microseconds.
AUTO_THREAD_MIN_CELLS = 20_000
AUTO_PROCESS_MIN_CELLS = 200_000
# measured-timing overrides (preferred when an instrumented run has already
# recorded per-iteration wall-clock): a thread round-trip costs ~0.2 ms, a
# process round-trip ~2 ms, so parallelism needs iterations at least an
# order of magnitude above that to pay
AUTO_THREAD_MIN_SECONDS = 4e-3
AUTO_PROCESS_MIN_SECONDS = 4e-2


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _work_cells(ext: ExtendedNetwork) -> int:
    return ext.num_commodities * (ext.num_edges + ext.num_nodes)


def _measured_iteration_seconds(instrumentation: Any) -> Optional[float]:
    """Mean recorded per-iteration wall-clock, if the caller's run has one."""
    if instrumentation is None or not getattr(instrumentation, "enabled", False):
        return None
    registry = getattr(instrumentation, "registry", None)
    if registry is None or "phase.iteration.seconds" not in registry:
        return None
    histogram = registry.histogram("phase.iteration.seconds")
    if histogram.count == 0:
        return None
    return histogram.total / histogram.count


def auto_backend(
    ext: Optional[ExtendedNetwork] = None,
    workers: Any = None,
    staleness: Optional[int] = None,
    instrumentation: Any = None,
) -> ExecutionBackend:
    """Pick serial/thread/process from CPUs, problem size, and timings.

    The decision procedure, in order:

    1. the worker cap is ``min(requested workers, available CPUs,
       commodity count)`` -- one effective worker means serial, always
       (sharding on a single core can only add overhead);
    2. a measured per-iteration wall-clock from the caller's
       instrumentation (the ``phase.iteration.seconds`` histogram of a
       previous run) beats any static proxy when present;
    3. otherwise the ``J * (E + V)`` work-cell proxy decides.

    ``staleness`` is treated as *permission*, not a demand: it takes effect
    only when the process backend is selected (the thread and serial
    engines are synchronous and strictly more accurate).
    """
    from repro.parallel.threads import ThreadBackend

    cpus = available_cpus()
    cap = cpus if workers in (None, "auto") else min(int(workers), cpus)
    if ext is not None:
        cap = min(cap, ext.num_commodities)
    cells = _work_cells(ext) if ext is not None else None
    measured = _measured_iteration_seconds(instrumentation)

    if cap <= 1:
        kind = "serial"
    elif measured is not None:
        if measured >= AUTO_PROCESS_MIN_SECONDS:
            kind = "process"
        elif measured >= AUTO_THREAD_MIN_SECONDS:
            kind = "thread"
        else:
            kind = "serial"
    elif cells is not None:
        if cells >= AUTO_PROCESS_MIN_CELLS:
            kind = "process"
        elif cells >= AUTO_THREAD_MIN_CELLS:
            kind = "thread"
        else:
            kind = "serial"
    else:
        # no size information at all: threads are the safe parallel choice
        # (worst case a few hundred microseconds of queue hops, never the
        # process pool's multi-millisecond pickles)
        kind = "thread"

    inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    if inst.enabled:
        inst.event(
            "backend.auto",
            kind=kind,
            workers=cap,
            cpus=cpus,
            **({"work_cells": cells} if cells is not None else {}),
            **({"measured_iteration_seconds": measured} if measured is not None else {}),
        )
    if kind == "serial":
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(workers=cap)
    return ParallelBackend(workers=cap, staleness=staleness or 0)


def resolve_backend(
    backend: Any = None,
    workers: Any = None,
    ext: Optional[ExtendedNetwork] = None,
    staleness: Optional[int] = None,
    instrumentation: Any = None,
) -> ExecutionBackend:
    """The backend implied by the uniform ``backend=`` / ``workers=`` pair.

    ``backend`` is an :class:`ExecutionBackend` instance (returned as-is,
    borrowed -- the caller keeps ownership) or one of the names in
    :data:`BACKEND_NAMES`:

    * ``"serial"`` -- the in-process reference engine;
    * ``"thread"`` -- :class:`~repro.parallel.threads.ThreadBackend`,
      zero-copy sharding over a thread pool;
    * ``"process"`` -- :class:`ParallelBackend`;
    * ``"auto"`` -- :func:`auto_backend` picks from CPUs, problem size
      (``ext``), and measured timings (``instrumentation``).

    ``workers`` is the convenience spelling used by :func:`repro.solve` and
    the CLI: an integer count or the string ``"auto"``.  A bare integer
    keeps its historical meaning (the process backend), except that
    ``workers=1`` now resolves to :class:`SerialBackend` -- a pool of one
    is pure overhead and the serial engine computes the same bits.

    When *neither* argument is given the :data:`REPRO_BACKEND_ENV`
    environment variable supplies a default backend name (unset: serial).

    ``staleness`` (process backend only) enables batched dispatch; see
    :class:`ParallelBackend`.  Combining it with ``"serial"``/``"thread"``
    is an error, and under ``"auto"`` it is permission rather than a
    demand.
    """
    if staleness is not None and (
        not isinstance(staleness, int) or isinstance(staleness, bool) or staleness < 0
    ):
        raise ValueError(f"staleness must be a non-negative int, got {staleness!r}")
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ValueError("pass either backend= or workers=, not both")
        if staleness:
            raise ValueError(
                "staleness= cannot be combined with a backend instance; "
                "construct ParallelBackend(staleness=...) directly"
            )
        return backend

    if backend is None and workers is None:
        backend = os.environ.get(REPRO_BACKEND_ENV) or None
        if backend is None:
            if staleness:
                raise ValueError(
                    "staleness= requires the process backend; pass workers>=2, "
                    "backend='process', or backend='auto'"
                )
            return SerialBackend()

    count: Optional[int] = None
    if workers is not None and workers != "auto":
        count = int(workers)
        if count < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")

    if backend is None:
        backend = "auto" if workers == "auto" else "process"
    if not isinstance(backend, str) or backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {backend!r}; expected an ExecutionBackend "
            f"instance or one of {BACKEND_NAMES}"
        )

    if backend == "auto":
        return auto_backend(
            ext=ext, workers=workers, staleness=staleness,
            instrumentation=instrumentation,
        )
    if backend == "serial":
        if count is not None and count != 1:
            raise ValueError(
                "backend='serial' is single-worker; drop workers= or pick "
                "'thread'/'process'/'auto'"
            )
        if staleness:
            raise ValueError("staleness= requires the process backend")
        return SerialBackend()
    if count == 1:
        # one worker: any pool is pure overhead and the serial engine
        # computes the same bits (staleness is moot -- synchronous serial
        # execution is strictly fresher than any relaxed schedule)
        return SerialBackend()
    if backend == "thread":
        if staleness:
            raise ValueError(
                "staleness= requires the process backend; the thread "
                "backend is synchronous"
            )
        from repro.parallel.threads import ThreadBackend

        return ThreadBackend(workers=count)
    return ParallelBackend(workers=count, staleness=staleness or 0)
