"""Execution backends for the gradient engine: the serial engine and the pool.

:class:`SerialBackend` is the engine.  It runs one flow solve and one
application of ``Gamma`` per iteration, in-process, and is the default of
every run loop.

:class:`ParallelBackend` is the serial engine plus a process pool that runs
*bounded-staleness batches*.  The paper's Section-5 algorithm lets a node
iterate on neighbour values a few iterations stale, and that tolerance is
the only thing a worker pool turns into speed here: within one batch every
worker iterates privately on its own contiguous commodity rows with the
global link-cost derivative ``dadf`` frozen at the batch start, so one
round-trip buys up to ``staleness + 1`` iterations.  The workers run the
:class:`~repro.core.state.ModelState` row-block kernels; the only
cross-commodity coupling, the usage sum of eq. (4), runs on the master as
the serial ``resource_usage`` call once every shard has returned.
``build_context`` and ``step`` are the serial engine's and never touch the
pool.  The pool is a cold-solve accelerator: it holds one epoch, so an
epoch change (``refresh``) closes it and the next batch restarts it.  Live
models -- the serve session and the online orchestrator -- run the serial
engine.

See ``docs/parallelism.md`` for the batched contract and the measurements
that keep this backend.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import IterationContext, build_iteration_context
from repro.core.gradient import GradientConfig, apply_gamma_batch
from repro.core.marginals import evaluate_cost, link_cost_derivative
from repro.core.routing import RoutingState, resource_usage
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ParallelExecutionError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.parallel.shm import SharedArraySet
from repro.parallel.worker import FAULT_PHASES, init_worker, run_shard

__all__ = ["SerialBackend", "ParallelBackend", "resolve_backend"]


# eta halvings the master may spend rescuing one step of a rejected batch's
# redo before settling for the least-bad trial (see ParallelBackend.advance):
# 4 halvings reach eta/16, far below the scale at which the blocked-set
# discontinuities that cause rejections operate
_REDO_MAX_BACKOFFS = 4


class SerialBackend:
    """The in-process gradient engine.

    A backend is *bound* to one ``(ExtendedNetwork, GradientConfig)`` pair
    by the algorithm that owns it, then asked for the two halves of an
    iteration: :meth:`build_context` (the flow solve and everything derived
    from it) and :meth:`step` (one application of the update map
    ``Gamma``).  Both run on the cell layout of the network's
    :class:`~repro.core.state.ModelState`: the routings and contexts they
    return hold cell vectors and build their dense tables only when read.
    """

    # how many iterations the backend may run between global ``dadf``
    # refreshes; the run loop sizes its advance() spans by it
    staleness = 0

    def __init__(self) -> None:
        self._ext: Optional[ExtendedNetwork] = None
        self._config: Optional[GradientConfig] = None

    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        self._ext = ext
        self._config = config

    def refresh(self, applied: Any) -> None:
        """Advance the bound model one epoch without rebinding.

        ``applied`` is a :class:`repro.core.delta.AppliedDelta`.  A worker
        pool holds the old epoch, so it closes here; the next batch
        restarts it on the new one.
        """
        self.close()
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
        """One application of ``Gamma`` on the routing's cell vector.

        Allocates only cell- and slot-sized vectors.  A ``context`` built
        from tables (a batch-final one, or one built by hand) is gathered
        onto the cells once, here.
        """
        ext = self._ext
        cfg = self._config
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        if eta is None:
            eta = cfg.eta
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        model = ModelState.of(ext)
        phi = routing.cells(model)
        cells = context.cell_vectors(model)
        dadr, delta = cells.dadr, cells.delta
        if delta is None:
            # a batch-final context (ParallelBackend.advance) carries traffic
            # and dadf only: finish the derivative chain without a flow solve
            with inst.phase("derivatives"):
                dadr, delta = model.reverse_sweep(phi, context.dadf)

        blocked: Optional[np.ndarray] = None
        if cfg.use_blocking:
            # an empty blocked set comes back as None, which the Gamma
            # kernel takes as its cheaper unblocked path
            with inst.phase("blocking"):
                blocked = model.blocked_sweep(phi, cells.traffic, dadr, delta, eta)
        # one kernel call for every commodity, on the plan whose targets
        # index the cell vectors and whose nodes the traffic slots
        with inst.phase("gamma"):
            new_phi = phi.copy()
            apply_gamma_batch(
                new_phi,
                model.gamma_cells,
                cells.traffic,
                delta,
                blocked,
                eta,
                cfg.traffic_tol,
            )
        return RoutingState.of_cells(model, new_phi)

    def advance(
        self,
        routing: RoutingState,
        context: Optional[IterationContext],
        iterations: int,
        eta: Optional[float] = None,
        instrumentation: Any = None,
    ) -> Tuple[RoutingState, IterationContext]:
        """Run ``iterations`` gradient iterations, returning the final pair.

        One :meth:`step` plus one :meth:`build_context` per iteration: the
        exact calls the run loop would make itself.
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

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _segment_shapes(ext: ExtendedNetwork) -> Dict[str, Tuple[int, ...]]:
    """The shared-memory segments a pool over ``ext`` publishes."""
    return {
        "phi": (ext.num_commodities, ext.num_edges),
        "traffic": (ext.num_commodities, ext.num_nodes),
        "dadf": (ext.num_edges,),
    }


def _split_shards(num_commodities: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal commodity ranges, one per logical worker.

    Contiguity matters: a shard is a contiguous row-block of every
    :class:`~repro.core.state.ModelState` array, and every commodity must
    be computed exactly once.
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


class ParallelBackend(SerialBackend):
    """The serial engine plus a worker pool for bounded-staleness batches.

    Parameters
    ----------
    workers:
        Worker process count (default: ``os.cpu_count()``).  The effective
        pool size is capped at the commodity count -- the sharding axis.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ...); default: the platform default.
    inject_fault:
        Test hook: the name of a worker phase (``"batch"``) in which every
        worker raises, to exercise crash cleanup.  Never set this outside
        tests.
    staleness:
        ``K >= 1``: :meth:`advance` runs up to ``K + 1`` iterations per
        worker round-trip with the global ``dadf`` at most ``K`` iterations
        stale -- the tolerance the paper's Section-5 asynchronous protocol
        grants and ``benchmarks/bench_stale_marginals.py`` quantifies.  The
        iterates drift from serial within ``STALENESS_DRIFT_RTOL``.

    :meth:`build_context` and :meth:`step` are the inherited serial ones
    and never start the pool; it starts lazily on the first batch, and
    :meth:`refresh` closes it.  Use as
    a context manager (or call :meth:`close`) to release the worker pool
    and the shared-memory blocks deterministically.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        inject_fault: Optional[str] = None,
        *,
        staleness: int,
    ) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not isinstance(staleness, int) or isinstance(staleness, bool) or staleness < 1:
            raise ValueError(f"staleness must be an int >= 1, got {staleness!r}")
        if inject_fault is not None and inject_fault not in FAULT_PHASES:
            raise ValueError(
                f"inject_fault must be one of {FAULT_PHASES}, got {inject_fault!r}"
            )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.staleness = staleness
        self._start_method = start_method
        self._inject_fault = inject_fault
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shm: Optional[SharedArraySet] = None
        self._shards: List[Tuple[int, int]] = []

    # -- lifecycle -----------------------------------------------------------------
    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        if ext is self._ext and config is self._config:
            return
        # rebinding to a new problem invalidates the published arrays
        self.close()
        super().bind(ext, config)

    def _ensure_started(self) -> None:
        if self._pool is not None:
            return
        if self._ext is None:
            raise ParallelExecutionError(
                "ParallelBackend used before bind(); construct it via "
                "GradientAlgorithm(..., backend=...) or call bind(ext, config)"
            )
        ext = self._ext
        # build the ModelState once on the master so the pickled network
        # the workers receive already carries it
        ModelState.of(ext)
        shm = SharedArraySet()
        try:
            self._shards = _split_shards(ext.num_commodities, self.workers)
            for name, shape in _segment_shapes(ext).items():
                shm.create(name, shape)
            import multiprocessing

            ctx = (
                multiprocessing.get_context(self._start_method)
                if self._start_method
                else multiprocessing.get_context()
            )
            self._pool = ProcessPoolExecutor(
                max_workers=len(self._shards),
                initializer=init_worker,
                initargs=(ext, shm.specs, self._inject_fault),
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

    def _observe_worker_timings(self, inst: Any, results: List[Any]) -> None:
        if not inst.enabled:
            return
        for worker_index, (_lo, timings) in enumerate(results):
            for name, duration in timings.items():
                inst.phase_observation(
                    f"worker{worker_index}.{name}", duration, worker=worker_index
                )

    # -- batched iterations ----------------------------------------------------------
    def advance(
        self,
        routing: RoutingState,
        context: Optional[IterationContext],
        iterations: int,
        eta: Optional[float] = None,
        instrumentation: Any = None,
    ) -> Tuple[RoutingState, IterationContext]:
        """Batched dispatch: up to ``staleness + 1`` iterations per round-trip.

        Before each batch the master copies the routing's ``phi`` and the
        context's ``traffic`` and ``dadf`` into shared memory.  Within the
        batch every worker iterates privately on its own commodity rows --
        re-solving its local flow balance and re-applying ``Gamma`` each
        inner iteration -- while the global ``dadf`` stays frozen at its
        batch-start value.  After the batch the master computes usage and a
        *fresh* ``dadf``, so staleness never accumulates across batches.
        The returned context carries no ``dadr``/``delta``; :meth:`step`
        derives them from its ``traffic`` and ``dadf``.

        Every batch is guarded by a monotonicity check: if the batch-final
        penalised cost exceeds the batch-start cost, the frozen derivative
        overshot (this happens near the capacity barrier, where ``dadf``
        steepens faster than any bounded-staleness estimate can track) and
        the master's serial step redoes the span from the batch-start
        iterate.  Accepting such a batch is how a "2% drift" mode turns
        into a 40% utility regression; rejecting it costs one wasted
        round-trip and keeps the drift bound honest
        (``parallel.batch_rejected`` counts the rollbacks).
        """
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        if iterations > 1:
            # the first span is a batch (staleness >= 1)
            self._ensure_started()
        ext = self._ext
        cfg = self._config
        if eta is None:
            eta = cfg.eta
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        done = 0
        while done < iterations:
            span = min(self.staleness + 1, iterations - done)
            done += span
            if span == 1:
                routing, context = super().advance(
                    routing, context, 1, eta=eta, instrumentation=instrumentation
                )
                continue
            arrays = self._shm.arrays
            with inst.phase("parallel_batch", iterations=span):
                np.copyto(arrays["phi"], routing.phi)
                np.copyto(arrays["traffic"], context.traffic)
                np.copyto(arrays["dadf"], context.dadf)
                futures = [
                    self._pool.submit(
                        run_shard, "batch", lo, hi,
                        span, eta, cfg.use_blocking, cfg.traffic_tol,
                    )
                    for lo, hi in self._shards
                ]
                results = self._collect("batch", futures)
                batch_routing = RoutingState(arrays["phi"].copy())
                traffic = arrays["traffic"].copy()
                # the serial usage call over the batch-final rows: usage
                # sums across commodities, so no shard can compute a part
                edge_usage, node_usage = resource_usage(ext, batch_routing, traffic)
                breakdown = evaluate_cost(
                    ext, batch_routing, cfg.cost_model, traffic,
                    usage=(edge_usage, node_usage),
                )
                dadf = link_cost_derivative(
                    ext, cfg.cost_model, edge_usage, node_usage
                )
            self._observe_worker_timings(inst, results)
            if breakdown.total > context.breakdown.total * (1 + 1e-9):
                # the frozen dadf overshot: discard the batch and redo the
                # span serially from the batch-start iterate
                inst.count("parallel.batch_rejected")
                for _ in range(span):
                    routing, context = self._safeguarded_step(
                        routing, context, eta, instrumentation
                    )
                continue
            # each inner iteration re-solved every commodity's flow balance
            inst.count("flow_solves", span)
            inst.count("parallel.batches")
            routing = batch_routing
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
        return routing, context

    def _safeguarded_step(
        self,
        routing: RoutingState,
        context: IterationContext,
        eta: float,
        instrumentation: Any,
    ) -> Tuple[RoutingState, IterationContext]:
        """One serial step of a rejected batch's redo, backtracking ``eta``.

        The knife-edge states that trigger batch rejection sit on a
        blocked-set boundary where even the *exact* full-eta step can
        ascend (the accumulated drift flips a discrete blocking decision
        and ``Gamma`` reroutes a large flow share at once), so halve
        ``eta`` until the penalised cost stops increasing, keeping the
        least-bad trial if none does.
        """
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        best_routing, best_cost = routing, np.inf
        step_eta = eta
        for _attempt in range(_REDO_MAX_BACKOFFS + 1):
            candidate = self.step(
                routing, eta=step_eta, context=context,
                instrumentation=instrumentation,
            )
            cand_cost = evaluate_cost(self._ext, candidate, self._config.cost_model).total
            if cand_cost < best_cost:
                best_routing, best_cost = candidate, cand_cost
            if cand_cost <= context.breakdown.total * (1 + 1e-9):
                break
            inst.count("parallel.batch_backoffs")
            step_eta *= 0.5
        return best_routing, self.build_context(
            best_routing, instrumentation=instrumentation
        )


def resolve_backend(
    backend: Any = None,
    workers: Optional[int] = None,
    ext: Optional[ExtendedNetwork] = None,
    staleness: Optional[int] = None,
) -> SerialBackend:
    """The backend implied by the uniform ``backend=`` / ``workers=`` pair.

    * ``backend`` is a :class:`SerialBackend` or :class:`ParallelBackend`
      instance, returned as-is and borrowed (the caller keeps ownership),
      or ``None``.
    * ``workers=N`` with ``N >= 2`` and ``staleness=K`` with ``K >= 1``
      builds ``ParallelBackend(workers=N, staleness=K)``.  The pool runs
      only bounded-staleness batches, so ``workers >= 2`` without
      ``staleness >= 1`` is an error.
    * ``workers=1``, or neither argument, means :class:`SerialBackend`.

    ``ext`` is unused; it stays in the signature for callers that pass it.
    """
    if backend is not None:
        if not isinstance(backend, SerialBackend):
            raise ValueError(
                f"backend= takes a SerialBackend or ParallelBackend instance, "
                f"got {backend!r}"
            )
        if workers is not None or staleness:
            raise ValueError("pass either backend= or workers=/staleness=, not both")
        return backend
    if workers is None:
        if staleness:
            raise ValueError(
                "staleness= sizes the worker pool's batches; pass workers>=2 with it"
            )
        return SerialBackend()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    if workers == 1:
        # a pool of one is pure overhead and the serial engine is fresher
        return SerialBackend()
    if not staleness:
        raise ValueError(
            f"workers={workers} needs staleness>=1: the pool runs only "
            f"bounded-staleness batches (see docs/parallelism.md)"
        )
    return ParallelBackend(workers=workers, staleness=staleness)
