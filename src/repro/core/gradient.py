"""The paper's distributed gradient-based algorithm (Section 5).

Each iteration applies the update map ``Gamma`` (eqs. (14)-(17)) to the
routing variables of every commodity at every node:

1. **Marginal-cost wave** -- compute ``dA/dr_i(j)`` by the upstream recursion
   (eq. (9)) and the per-edge marginals ``delta_e(j)`` (eq. (15)'s bracket),
   together with the loop-freedom tags (eq. (18));
2. **Routing update** -- each node shifts routing fraction away from
   expensive out-edges toward its cheapest non-blocked out-edge: the
   reduction on edge ``e`` is ``Delta_e = min(phi_e, eta * a_e / t_i)`` where
   ``a_e = delta_e - min_m delta_m`` (eqs. (16)-(17)), and blocked edges stay
   at zero (eq. (14));
3. **Forecast / allocation** -- the flow balance (eq. (3)) is re-solved under
   the new fractions.  In the unified single-resource-per-node cost model
   produced by the extended-graph transformation, the optimal *local*
   resource allocation at each node is exactly to serve its forecast flows,
   so this phase needs no further optimisation (the paper's node-level
   "independent resource optimization" is closed-form here).

The class below is the fast synchronous reference implementation: it executes
the identical update the per-node agents of :mod:`repro.simulation` compute
by message passing (equivalence is covered by integration tests).

Admission control falls out for free: the routing fraction on each dummy
input link *is* the admitted share of the offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.blocking import compute_blocked_sets_scalar
from repro.core.context import IterationContext
from repro.core.marginals import (
    CostModel,
    edge_marginals,
    link_cost_derivative,
    marginal_cost_to_destination_scalar,
    optimality_residual,
)
from repro.core.result import RunResultMixin
from repro.core.routing import (
    RoutingState,
    initial_routing,
    resource_usage_scalar,
    solve_traffic_scalar,
    utilization_profile,
    validate_routing,
)
from repro.core.solution import Solution, build_solution
from repro.core.transform import CommodityGammaPlan, ExtendedNetwork
from repro.exceptions import ConvergenceError
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = [
    "GradientConfig",
    "IterationRecord",
    "GradientResult",
    "GradientAlgorithm",
    "apply_gamma_at_node",
    "apply_gamma_batch",
]


def apply_gamma_at_node(
    phi_row: np.ndarray,
    t_i: float,
    out: List[int],
    delta: np.ndarray,
    blocked: Optional[np.ndarray],
    eta: float,
    traffic_tol: float,
) -> None:
    """Eqs. (14)-(17) at a single node for a single commodity (in place).

    This is the *entire* node-local computation of the update map ``Gamma``;
    both the synchronous engine below and the message-passing agents of
    :mod:`repro.simulation.agent` call exactly this function, which is what
    makes their iterates bit-identical.

    Parameters
    ----------
    phi_row:
        The commodity's routing fractions, indexed by global edge id
        (modified in place on the node's out-edges only).
    t_i:
        The node's commodity traffic ``t_i(j)``.
    out:
        Global edge ids of the node's allowed out-edges.
    delta:
        Per-edge marginal costs ``delta_e(j)`` (eq. (15)'s bracket).
    blocked:
        Optional bool mask over edges; blocked edges stay at zero (eq. (14)).
    eta:
        The scale factor of ``Gamma``.
    traffic_tol:
        Below this traffic the node is idle and jumps to its best link.
    """
    if blocked is not None:
        eligible = [e for e in out if not blocked[e]]
    else:
        eligible = list(out)
    if not eligible:
        return  # cannot move anything; keep fractions as they are

    deltas = delta[eligible]
    best_pos = int(np.argmin(deltas))
    best_edge = eligible[best_pos]
    best_delta = float(deltas[best_pos])

    if t_i <= traffic_tol:
        # Idle node: put everything on the current best link (the limit of
        # Gamma as Delta caps at phi); costs nothing, speeds later moves.
        for e in out:
            phi_row[e] = 0.0
        phi_row[best_edge] = 1.0
        return

    moved = 0.0
    for e in eligible:
        if e == best_edge:
            continue
        frac = phi_row[e]
        if frac == 0.0:
            continue
        a_e = delta[e] - best_delta
        reduction = min(frac, eta * a_e / t_i)
        if reduction > 0.0:
            phi_row[e] = frac - reduction
            moved += reduction
    if moved > 0.0:
        phi_row[best_edge] += moved

    # Guard against drift over thousands of iterations.  Only the *eligible*
    # fractions may be rescaled: eq. (14) freezes blocked edges at their
    # current (zero) value, so they must not absorb any of the correction.
    free = 0.0
    frozen = 0.0
    for e in out:
        if blocked is not None and blocked[e]:
            frozen += phi_row[e]
        else:
            free += phi_row[e]
    if free > 0.0 and abs((free + frozen) - 1.0) > 1e-12:
        scale = (1.0 - frozen) / free
        for e in eligible:
            phi_row[e] *= scale


def apply_gamma_batch(
    phi_row: np.ndarray,
    plan: CommodityGammaPlan,
    traffic_row: np.ndarray,
    delta: np.ndarray,
    blocked: Optional[np.ndarray],
    eta: float,
    traffic_tol: float,
) -> None:
    """Eqs. (14)-(17) for *all* of a commodity's nodes in one vectorized pass.

    Bit identical to calling :func:`apply_gamma_at_node` at each node of
    ``plan`` (the sync/distributed equivalence tests pin this): every float
    operation mirrors the scalar kernel's, and every per-node sum is an
    ``np.bincount`` over the node's cells, which adds them left to right
    from ``+0.0`` like the scalar accumulator.  The pass runs over the
    plan's valid cells only (``plan.targets``, row-major), never over the
    padded matrix.  Nodes update disjoint out-edge sets, so batching over
    them is exact.

    Parameters mirror :func:`apply_gamma_at_node`, with ``plan`` replacing
    the per-node ``out`` list and ``traffic_row`` carrying ``t_i(j)`` for
    every extended node.
    """
    if plan.nodes.size == 0:
        return
    targets = plan.targets
    cell_rows = plan.cell_rows
    starts = plan.row_starts
    num_rows = plan.nodes.size
    num_cells = targets.size

    phi = phi_row[targets]
    delta_c = delta[targets]
    if blocked is None:
        # every plan row is a branch node (>= 2 cells), so with no blocking
        # nothing can make a row ineligible
        eligible = None
        keyed = delta_c
    else:
        eligible = ~blocked[targets]
        if not eligible.any():
            return
        keyed = np.where(eligible, delta_c, np.inf)

    # the scalar argmin's pick: the first eligible cell attaining the row
    # minimum.  A NaN row picks its first NaN, and a row whose eligible
    # deltas are all +inf its first eligible cell; a row with nothing
    # eligible has no hit and falls back to its first cell.  A minimum is
    # exact, so the unordered ``ufunc.at`` cannot change a bit
    row_min = np.full(num_rows, np.inf)
    np.minimum.at(row_min, cell_rows, keyed)
    hit = (keyed == row_min[cell_rows]) | np.isnan(keyed)
    if eligible is not None:
        hit &= eligible
    hits = np.flatnonzero(hit)
    best = np.full(num_rows, num_cells)
    np.minimum.at(best, cell_rows[hits], hits)
    t_i = traffic_row[plan.nodes]
    if eligible is None:
        best_delta = keyed[best]
        idle = t_i <= traffic_tol
        active = ~idle
    else:
        has_eligible = best < num_cells
        best = np.where(has_eligible, best, starts)
        # rows with nothing eligible keep their fractions; zero their (unused)
        # best delta so the subtraction below never forms inf - inf
        best_delta = np.where(has_eligible, keyed[best], 0.0)
        idle = has_eligible & (t_i <= traffic_tol)
        active = has_eligible & ~idle

    if active.any():
        t_safe = np.where(t_i > 0.0, t_i, 1.0)
        step = (eta * (delta_c - best_delta[cell_rows])) / t_safe[cell_rows]
        # the scalar's min(frac, step): step only when strictly smaller, so a
        # NaN step (an all-+inf row's inf - inf) keeps frac like the scalar
        reduction = np.where(step < phi, step, phi)
        apply = active[cell_rows] & (phi != 0.0) & (reduction > 0.0)
        if eligible is not None:
            apply &= eligible
        apply[best] = False  # the best edge only ever gains
        reduction = np.where(apply, reduction, 0.0)
        phi = phi - reduction  # x - 0.0 == x bitwise for the masked cells
        moved = np.bincount(cell_rows, reduction, num_rows)
        phi[best] += moved  # already +0.0 on every inactive row

        # eligible-only drift renormalization (scalar kernel's exact sums)
        if eligible is None:
            # nothing is frozen: free + 0.0 == free and 1.0 - 0.0 == 1.0
            # bitwise, so the frozen sums drop out of the scalar's formulas
            free = np.bincount(cell_rows, phi, num_rows)
            total = free
            numer = 1.0
        else:
            free = np.bincount(cell_rows, np.where(eligible, phi, 0.0), num_rows)
            frozen = np.bincount(cell_rows, np.where(eligible, 0.0, phi), num_rows)
            total = free + frozen
            numer = 1.0 - frozen
        need = active & (free > 0.0) & (np.abs(total - 1.0) > 1e-12)
        if need.any():
            scale = numer / np.where(free > 0.0, free, 1.0)
            rescale = need[cell_rows]
            if eligible is not None:
                rescale &= eligible
            phi = np.where(rescale, phi * scale[cell_rows], phi)

    if idle.any():
        phi[idle[cell_rows]] = 0.0
        phi[best[idle]] = 1.0

    phi_row[targets] = phi


@dataclass
class GradientConfig:
    """Parameters of the gradient-based algorithm.

    ``eta`` is the scale factor of ``Gamma`` (paper Figure 4 uses 0.04: small
    enough to converge, large enough to reach 95% of optimal in about a
    thousand iterations).  ``cost_model`` carries the penalty ``D`` and the
    coefficient ``eps`` (0.2 in the paper).
    """

    eta: float = 0.04
    cost_model: CostModel = field(default_factory=CostModel)
    max_iterations: int = 20000
    tolerance: float = 1e-9  # relative cost change considered "no progress"
    patience: int = 25  # consecutive no-progress iterations => converged
    use_blocking: bool = True
    traffic_tol: float = 1e-12  # below this a node counts as carrying no traffic
    record_every: int = 1  # history sampling period

    # Adaptive step scale.  The stable eta depends on the instance (the paper
    # tunes it by hand; congested instances need smaller steps).  With
    # ``adaptive_eta`` the run monitors the global cost A and backs the step
    # scale off whenever an iteration *increases* it -- the oscillation
    # signature -- then creeps back up on sustained progress.  This uses a
    # global signal, so it models a control plane watching the system rather
    # than the pure per-node protocol; all paper-faithful experiments keep it
    # off (the default).
    adaptive_eta: bool = False
    eta_backoff: float = 0.5
    eta_growth: float = 1.02
    eta_min_factor: float = 1e-4  # floor: eta * eta_min_factor
    eta_max_factor: float = 1.0  # ceiling: eta * eta_max_factor

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.eta_backoff < 1.0:
            raise ValueError("eta_backoff must be in (0, 1)")
        if not self.eta_growth >= 1.0:
            raise ValueError("eta_growth must be >= 1")
        if not 0.0 < self.eta_min_factor <= 1.0:
            raise ValueError("eta_min_factor must be in (0, 1]")
        if not self.eta_max_factor >= 1.0:
            raise ValueError("eta_max_factor must be >= 1")


@dataclass
class IterationRecord:
    """One sampled point of the optimisation trajectory."""

    iteration: int
    cost: float  # A = Y + eps * D
    utility: float  # sum_j U_j(a_j)
    max_utilization: float
    admitted: np.ndarray


@dataclass
class GradientResult(RunResultMixin):
    """Outcome of a gradient run: final solution plus the full trajectory.

    Implements the :class:`~repro.core.result.RunResult` protocol; the
    trajectory accessors (``utilities``, ``costs``, ``recorded_iterations``,
    ``final_utility``) come from :class:`~repro.core.result.RunResultMixin`.
    """

    solution: Solution
    history: List[IterationRecord]
    converged: bool
    iterations: int


class GradientAlgorithm:
    """Synchronous engine for the distributed gradient algorithm.

    Example
    -------
    >>> from repro.core.gradient import GradientAlgorithm, GradientConfig
    >>> algo = GradientAlgorithm(ext, GradientConfig(eta=0.04))
    >>> result = algo.run()
    >>> result.solution.utility  # doctest: +SKIP
    """

    def __init__(
        self,
        ext: ExtendedNetwork,
        config: Optional[GradientConfig] = None,
        backend=None,
    ):
        self.ext = ext
        self.config = config or GradientConfig()
        if backend is None:
            # imported lazily: repro.parallel imports this module's kernels
            from repro.parallel.backend import SerialBackend

            backend = SerialBackend()
        self.backend = backend
        backend.bind(self.ext, self.config)

    def refresh(self, applied) -> None:
        """Advance the bound model one epoch.

        ``applied`` is a :class:`repro.core.delta.AppliedDelta`.  The
        execution backend republishes only what the delta dirtied -- in
        particular a :class:`repro.parallel.ParallelBackend` keeps its
        worker pool alive across the refresh.
        """
        self.ext = applied.ext
        self.backend.refresh(applied)

    # -- one application of Gamma ------------------------------------------------
    def compute_context(
        self, routing: RoutingState, instrumentation=None
    ) -> IterationContext:
        """Solve the flow balance once and cache everything the iteration needs."""
        return self.backend.build_context(routing, instrumentation=instrumentation)

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation=None,
    ) -> RoutingState:
        """Apply the update map ``Gamma`` once and return the new routing.

        ``eta`` overrides the configured step scale for this application
        (used by the adaptive-step run loop).  ``context`` supplies the
        precomputed :class:`IterationContext` of ``routing``; without it one
        is built here (the run loop always passes the cached one, so each
        iteration solves the flow balance exactly once).
        ``instrumentation`` times the backend's phases; it is read-only and
        never changes an iterate.

        The actual work happens in the configured execution backend's
        serial engine (:class:`repro.parallel.SerialBackend`; a
        :class:`repro.parallel.ParallelBackend` inherits the same
        ``step``).
        """
        return self.backend.step(
            routing, eta=eta, context=context, instrumentation=instrumentation
        )

    def step_reference(
        self, routing: RoutingState, eta: Optional[float] = None
    ) -> RoutingState:
        """Pure-scalar application of ``Gamma``: the reference engine.

        Recomputes everything with the paper-literal walks -- the scalar
        flow solve, the scalar usage sum, the scalar marginal wave, the
        scalar blocked sets, and the per-node kernel -- sharing no kernel
        with :meth:`step`.  It is the ground truth :meth:`step` is asserted
        bit-identical against by the tests, the iteration-core benchmark
        and :meth:`repro.validate.DifferentialOracle.compare_reference`.
        """
        ext = self.ext
        cfg = self.config
        if eta is None:
            eta = cfg.eta
        new_phi = routing.phi.copy()

        traffic = solve_traffic_scalar(ext, routing)
        edge_usage, node_usage = resource_usage_scalar(ext, routing, traffic)
        dadf = link_cost_derivative(ext, cfg.cost_model, edge_usage, node_usage)

        for view in ext.commodities:
            j = view.index
            dadr = marginal_cost_to_destination_scalar(ext, j, routing, dadf)
            delta = edge_marginals(ext, j, dadf, dadr)
            if cfg.use_blocking:
                blocked = compute_blocked_sets_scalar(
                    ext, j, routing, traffic, dadr, delta, eta
                )
            else:
                blocked = None
            out_lists = ext.commodity_out_edges[j]
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = out_lists[node]
                if len(out) < 2:
                    continue  # a single out-edge always carries fraction 1
                apply_gamma_at_node(
                    new_phi[j],
                    traffic[j, node],
                    out,
                    delta,
                    blocked,
                    eta,
                    cfg.traffic_tol,
                )

        return RoutingState(new_phi)

    # -- full run ------------------------------------------------------------------
    def run(
        self,
        routing: Optional[RoutingState] = None,
        callback: Optional[Callable[[int, IterationRecord], None]] = None,
        instrumentation=None,
        validate=False,
    ) -> GradientResult:
        """Iterate ``Gamma`` from a feasible start until convergence.

        Starts from the paper's shed-everything routing (strictly feasible)
        unless ``routing`` is given.  Raises :class:`ConvergenceError` if the
        cost diverges (step scale ``eta`` too large).

        ``instrumentation`` (an :class:`repro.obs.Instrumentation`) collects
        per-phase wall-clock timings, per-iteration trajectory events at the
        ``record_every`` cadence, and run-level gauges.  It only *reads*
        already-computed values, so an instrumented run produces bit-identical
        iterates and performs no extra flow solves.

        ``validate`` (``True`` or ``"strict"``) runs the invariant audit on
        the finished result and attaches the
        :class:`~repro.validate.ValidationReport`; iterates are unaffected.
        """
        ext = self.ext
        cfg = self.config
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        if routing is None:
            routing = initial_routing(ext)
        else:
            validate_routing(ext, routing)
            routing = routing.copy()

        # One IterationContext per routing state: the step, the convergence
        # check, and the trajectory record all read the same cache, so the
        # flow balance is solved exactly once per iteration.
        context = self.compute_context(routing, instrumentation=instrumentation)
        history: List[IterationRecord] = []
        record = self._record(0, context)
        history.append(record)
        self._observe(inst, record)
        if callback:
            callback(0, record)

        previous_cost = record.cost
        quiet = 0
        converged = False
        iterations_done = 0
        eta = cfg.eta
        eta_floor = cfg.eta * cfg.eta_min_factor
        eta_ceiling = cfg.eta * cfg.eta_max_factor

        # A ParallelBackend with staleness=K may run up to K+1 iterations
        # per batch.  The span never crosses a record_every boundary, so the
        # recorded trajectory keeps its exact serial cadence; divergence,
        # adaptive-eta, and convergence checks then run once per batch (per
        # iteration on the serial engine, whose staleness is 0, so span is
        # always 1).
        batch = 1 + self.backend.staleness
        iteration = 0
        while iteration < cfg.max_iterations:
            span = min(batch, cfg.max_iterations - iteration)
            if span > 1:
                span = min(span, cfg.record_every - iteration % cfg.record_every)
            iteration += span
            with inst.phase("iteration", iteration=iteration, span=span):
                if span == 1:
                    routing = self.step(
                        routing, eta=eta, context=context,
                        instrumentation=instrumentation,
                    )
                    context = self.compute_context(
                        routing, instrumentation=instrumentation
                    )
                else:
                    routing, context = self.backend.advance(
                        routing, context, span, eta=eta,
                        instrumentation=instrumentation,
                    )
                iterations_done = iteration

            cost = context.cost
            if not np.isfinite(cost):
                raise ConvergenceError(
                    f"cost diverged at iteration {iteration}; "
                    f"reduce eta (currently {eta})"
                )
            if cfg.adaptive_eta:
                if cost > previous_cost * (1.0 + 1e-12):
                    eta = max(eta * cfg.eta_backoff, eta_floor)
                else:
                    eta = min(eta * cfg.eta_growth, eta_ceiling)
            if iteration % cfg.record_every == 0 or iteration == cfg.max_iterations:
                record = self._record(iteration, context)
                history.append(record)
                self._observe(inst, record)
                if callback:
                    callback(iteration, record)

            if abs(cost - previous_cost) <= cfg.tolerance * max(1.0, abs(cost)):
                quiet += 1
                if quiet >= cfg.patience:
                    converged = True
                    break
            else:
                quiet = 0
            previous_cost = cost

        if history[-1].iteration != iterations_done:
            record = self._record(iterations_done, context)
            history.append(record)
            self._observe(inst, record)

        solution = build_solution(
            ext,
            routing,
            cfg.cost_model,
            method="gradient",
            iterations=iterations_done,
            traffic=context.traffic,
        )
        if inst.enabled:
            inst.gauge("iterations_total", iterations_done)
            inst.gauge("converged", float(converged))
            inst.gauge("final_utility", solution.utility)
            inst.gauge("final_cost", solution.cost)
        result = GradientResult(
            solution=solution,
            history=history,
            converged=converged,
            iterations=iterations_done,
        )
        if validate:
            from repro.validate import attach_validation

            attach_validation(result, ext, mode=validate, instrumentation=inst)
        return result

    def optimality(
        self,
        routing: RoutingState,
        context: Optional[IterationContext] = None,
    ):
        """Theorem-2 residuals at ``routing`` (see :mod:`repro.core.marginals`).

        Pass the state's :class:`IterationContext` to reuse its cached
        traffic and derivatives instead of re-solving.
        """
        return optimality_residual(
            self.ext, routing, self.config.cost_model, context=context
        )

    @staticmethod
    def _observe(inst, record: IterationRecord) -> None:
        """Mirror a trajectory record into the instrumentation event log."""
        if not inst.enabled:
            return
        inst.iteration(
            record.iteration,
            cost=record.cost,
            utility=record.utility,
            max_utilization=record.max_utilization,
        )

    def _record(self, iteration: int, context: IterationContext) -> IterationRecord:
        breakdown = context.breakdown
        util = utilization_profile(context.node_usage, self.ext.capacity)
        max_util = float(util.max()) if util.size else 0.0
        return IterationRecord(
            iteration=iteration,
            cost=breakdown.total,
            utility=breakdown.utility,
            max_utilization=max_util,
            admitted=breakdown.admitted.copy(),
        )
