"""streamflow -- reproduction of Xia, Towsley & Zhang (ICDCS 2007).

*Distributed Resource Management and Admission Control of Stream Processing
Systems with Max Utility.*

Public API tour
---------------
Model building::

    from repro import PhysicalNetwork, Commodity, StreamNetwork, Task

Solving (one-liner)::

    from repro import solve
    solution = solve(stream_network)            # distributed gradient
    optimum = solve(stream_network, method="optimal")   # centralized LP/FW
    result = solve(stream_network, full_result=True)    # RunResult protocol

Observability::

    from repro import Instrumentation, solve
    inst = Instrumentation()
    solution = solve(stream_network, instrumentation=inst)
    inst.export_metrics("metrics.json")   # repro.metrics/1 schema
    inst.export_trace("trace.json")       # chrome://tracing timeline

Algorithm objects (full control + convergence history)::

    from repro import (build_extended_network, GradientAlgorithm,
                       GradientConfig, BackpressureAlgorithm)

See README.md for a quickstart and DESIGN.md for the paper-to-module map.
"""

from typing import Optional, Union

from repro.core import (
    AdmissionController,
    AlphaFairUtility,
    BackpressureAlgorithm,
    BackpressureConfig,
    BackpressureResult,
    CappedLinearUtility,
    Commodity,
    CostModel,
    ExtendedNetwork,
    GradientAlgorithm,
    GradientConfig,
    GradientResult,
    InverseBarrier,
    IterationContext,
    LinearUtility,
    Link,
    LogBarrier,
    LogUtility,
    Node,
    NodeKind,
    OptimalResult,
    PhysicalNetwork,
    RoutingState,
    RunResult,
    RunResultMixin,
    Solution,
    SqrtUtility,
    StreamNetwork,
    Task,
    build_extended_network,
    solve_concave,
    solve_lp,
    solve_optimal,
)
from repro.obs import NULL_INSTRUMENTATION, Instrumentation
from repro.options import SolveOptions
from repro.exceptions import (
    ConvergenceError,
    InfeasibleError,
    ModelError,
    ParallelExecutionError,
    RoutingError,
    SimulationError,
    SolverError,
    StreamFlowError,
    TransformError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "solve",
    "SolveOptions",
    "Instrumentation",
    "RunResult",
    "RunResultMixin",
    "OptimalResult",
    "AdmissionController",
    "AlphaFairUtility",
    "BackpressureAlgorithm",
    "BackpressureConfig",
    "BackpressureResult",
    "CappedLinearUtility",
    "Commodity",
    "CostModel",
    "ExtendedNetwork",
    "GradientAlgorithm",
    "GradientConfig",
    "GradientResult",
    "InverseBarrier",
    "IterationContext",
    "LinearUtility",
    "Link",
    "LogBarrier",
    "LogUtility",
    "Node",
    "NodeKind",
    "PhysicalNetwork",
    "RoutingState",
    "Solution",
    "SqrtUtility",
    "StreamNetwork",
    "Task",
    "build_extended_network",
    "solve_concave",
    "solve_lp",
    "solve_optimal",
    "StreamFlowError",
    "ModelError",
    "ValidationError",
    "TransformError",
    "RoutingError",
    "InfeasibleError",
    "ConvergenceError",
    "ParallelExecutionError",
    "SolverError",
    "SimulationError",
    "__version__",
]


SOLVE_METHODS = ("gradient", "optimal", "backpressure", "distributed")


def _check_config(method: str, config):
    """Resolve the uniform ``config=`` argument to the method's config."""
    cls = BackpressureConfig if method == "backpressure" else GradientConfig
    if config is not None and not isinstance(config, cls):
        raise TypeError(
            f"method {method!r} takes a {cls.__name__}, "
            f"got {type(config).__name__}"
        )
    return config if config is not None else cls()


def solve(
    stream_network: StreamNetwork,
    method: Optional[str] = None,
    config: Optional[Union[GradientConfig, BackpressureConfig]] = None,
    instrumentation: Optional[Instrumentation] = None,
    full_result: Optional[bool] = None,
    workers: Optional[int] = None,
    backend=None,
    staleness: Optional[int] = None,
    execution: Optional[str] = None,
    validate: Union[bool, str, None] = None,
    options: Optional[SolveOptions] = None,
):
    """Solve the joint admission/routing/allocation problem for a model.

    Parameters
    ----------
    stream_network:
        The validated problem instance.
    options:
        A single frozen :class:`SolveOptions` carrying every knob below.
        This is the preferred spelling; the individual keyword arguments
        are retained as deprecated aliases for it (one release) and may
        not be combined with ``options=``.  See the migration table in
        docs/api.md.
    method:
        ``"gradient"`` -- the paper's distributed algorithm, synchronous
        engine (default);
        ``"distributed"`` -- the same algorithm executed as an actual
        message-passing protocol (bit-identical iterates, plus
        message/byte/round accounting);
        ``"optimal"`` -- the centralized LP / Frank-Wolfe optimum;
        ``"backpressure"`` -- the baseline of [6] (solution at its final
        time-averaged rates; no routing state).
    config:
        One optional config object, uniform across methods: a
        :class:`GradientConfig` for ``"gradient"``/``"distributed"``, a
        :class:`BackpressureConfig` for ``"backpressure"``; ``"optimal"``
        takes none.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` hook collecting phase
        timings, trajectory events, and (distributed mode) message/byte
        counts.  Defaults to a zero-overhead no-op.
    full_result:
        When True, return the full :class:`~repro.core.result.RunResult`
        (trajectory + solution) instead of just the
        :class:`~repro.core.solution.Solution`.  Uniform across methods:
        ``"optimal"`` returns an :class:`OptimalResult` wrapper.
    workers:
        Worker processes for the batched-staleness pool
        (:class:`repro.parallel.ParallelBackend`), ``method="gradient"``
        only.  ``workers=N`` with ``N >= 2`` needs ``staleness >= 1``;
        ``workers=1`` and the default ``None`` run the serial engine.  See
        ``docs/parallelism.md``.
    backend:
        A :class:`~repro.parallel.SerialBackend` or
        :class:`~repro.parallel.ParallelBackend` instance, borrowed (the
        caller closes it), or ``None``.  A pool built here from
        ``workers=`` is context-managed: its processes and shared-memory
        segments are released even when the run raises mid-iteration.
    staleness:
        With ``workers >= 2``: the pool runs up to ``staleness + 1``
        iterations per worker round-trip with the global link-cost
        derivative frozen inside a batch.  The final utility drifts from
        serial within ``repro.validate.STALENESS_DRIFT_RTOL``.  Batches
        never cross a trajectory record, so the pool needs
        ``config.record_every > 1`` to run at all.  Under
        ``method="distributed", execution="async"`` the same number is the
        bounded-staleness freshness rule of the barrier-free engine: a node
        may iterate on neighbour values up to ``staleness`` epochs older
        than its own counter (default
        :data:`repro.simulation.async_engine.DEFAULT_STALENESS`).
    execution:
        Execution model for ``method="distributed"``: ``"sync"`` (and the
        default ``None``) runs the phase-barrier protocol; ``"async"``
        runs the barrier-free event-driven engine
        (:class:`repro.simulation.AsyncGradientRun`) in which agents react
        to individual message deliveries under the bounded-staleness rule.
        Fault injection (delay/loss/duplication) is available on the
        direct :class:`~repro.simulation.AsyncGradientRun` API; ``solve``
        always uses a perfect network.  See docs/async.md.
    validate:
        Audit the result against the paper's invariant catalog
        (:mod:`repro.validate`).  ``True`` attaches a
        :class:`~repro.validate.ValidationReport` to ``result.validation``
        and ``solution.extras["validation"]``; ``"strict"`` additionally
        raises :class:`ValidationError` if any check fails.  The default
        (``False``) runs no checks -- iterates and flow-solve counts are
        unchanged (pinned by tests).  See docs/validation.md.

    Returns
    -------
    Solution or RunResult
        The final solution, or the full result when ``full_result=True``.
    """
    explicit = {
        name: value
        for name, value in (
            ("method", method),
            ("config", config),
            ("instrumentation", instrumentation),
            ("full_result", full_result),
            ("workers", workers),
            ("backend", backend),
            ("staleness", staleness),
            ("execution", execution),
            ("validate", validate),
        )
        if value is not None
    }
    if options is not None:
        if explicit:
            clash = sorted(explicit)
            raise TypeError(
                f"solve() got both options= and the keyword aliases {clash}; "
                f"fold them into the SolveOptions (options.replace(...))"
            )
        if not isinstance(options, SolveOptions):
            raise TypeError(
                f"options= takes a SolveOptions, got {type(options).__name__}"
            )
        opts = options
    else:
        opts = SolveOptions.from_kwargs(**explicit)
    return _solve_impl(
        stream_network, opts.method, opts.config, opts.instrumentation,
        opts.full_result,
        workers=opts.workers, backend=opts.backend, staleness=opts.staleness,
        execution=opts.execution, validate=opts.validate,
    )


def _solve_impl(
    stream_network, method, config, instrumentation, full_result,
    workers=None, backend=None, staleness=None, execution=None, validate=False,
):
    if method not in SOLVE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {SOLVE_METHODS}"
        )
    inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    ext = build_extended_network(stream_network)

    if workers is not None and method != "gradient":
        raise TypeError(
            f"workers= builds the batched-staleness pool, which only "
            f"method='gradient' runs, not {method!r}"
        )
    if method not in ("gradient", "distributed") and (
        backend is not None or staleness is not None
    ):
        raise TypeError(
            f"backend=/staleness= apply only to the gradient/distributed "
            f"methods, not {method!r}"
        )
    if execution is not None:
        if execution not in ("sync", "async"):
            raise ValueError(
                f"unknown execution {execution!r}; expected 'sync' or 'async'"
            )
        if method != "distributed":
            raise TypeError(
                f"execution= applies only to method='distributed', "
                f"not {method!r}"
            )
    asynchronous = execution == "async"
    if staleness and method != "gradient" and not asynchronous:
        raise TypeError(
            "staleness= (batched dispatch) applies only to method='gradient' "
            "or to method='distributed' with execution='async'; the "
            "synchronous distributed runner proceeds round by round"
        )

    if method == "optimal":
        if config is not None:
            raise TypeError("method 'optimal' takes no config")
        with inst.phase("optimal_solve"):
            solution = solve_optimal(ext)
        if inst.enabled:
            inst.gauge("final_utility", solution.utility)
        result = OptimalResult(solution=solution)
    elif method == "backpressure":
        cfg = _check_config(method, config)
        result = BackpressureAlgorithm(ext, cfg).run(
            instrumentation=instrumentation
        )
    else:
        cfg = _check_config(method, config)
        from contextlib import nullcontext

        from repro.parallel import resolve_backend

        # under execution="async", staleness parameterizes the freshness
        # rule of the event-driven engine, not the pool's batches -- the
        # snapshot-evaluation backend stays serial
        resolved = resolve_backend(
            backend, workers, staleness=None if asynchronous else staleness
        )
        # a caller-supplied backend instance is borrowed (the caller closes
        # it); anything resolve_backend built here is owned, and the with
        # block releases its pool and shared-memory segments even when the
        # run raises mid-iteration
        scope = resolved if resolved is not backend else nullcontext(resolved)
        with scope:
            if method == "gradient":
                result = GradientAlgorithm(ext, cfg, backend=resolved).run(
                    instrumentation=instrumentation
                )
            elif asynchronous:
                from repro.simulation.async_engine import (
                    DEFAULT_STALENESS,
                    AsyncGradientRun,
                )

                result = AsyncGradientRun(
                    ext,
                    cfg,
                    staleness=(
                        staleness if staleness is not None else DEFAULT_STALENESS
                    ),
                    instrumentation=instrumentation,
                    backend=resolved,
                ).run(cfg.max_iterations, record_every=cfg.record_every)
            else:  # distributed, synchronous phase barriers
                from repro.simulation.runner import DistributedGradientRun

                result = DistributedGradientRun(
                    ext, cfg, instrumentation=instrumentation, backend=resolved
                ).run(cfg.max_iterations, record_every=cfg.record_every)
    if validate:
        from repro.validate import attach_validation

        attach_validation(result, ext, mode=validate, instrumentation=inst)
    return result if full_result else result.solution
