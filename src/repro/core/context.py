"""Per-iteration flow cache: everything derivable from one routing state.

Every phase of a gradient iteration -- the update map ``Gamma``, the
convergence check, the trajectory record, the optimality residuals -- needs
the same quantities: the flow balance solution ``t`` (eq. (3)), the resource
usage ``f`` (eqs. (4)-(5)), the cost breakdown ``A = Y + eps * D``, and the
derivative chain ``dA/df -> dA/dr -> delta`` (eqs. (9), (11), (15)).  The
seed implementation recomputed them ad hoc, solving the flow balance up to
three times per iteration.  :class:`IterationContext` computes each exactly
once per routing state; the run loops thread it through so every consumer
reads the cache instead of re-solving.

The context is immutable by convention: it describes one routing state, and
a new state gets a new context (see :meth:`GradientAlgorithm.run
<repro.core.gradient.GradientAlgorithm.run>`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.marginals import (
    CostBreakdown,
    CostModel,
    cost_breakdown,
    link_cost_derivative,
)
from repro.core.routing import RoutingState
from repro.core.state import CellVectors, ModelState
from repro.core.transform import ExtendedNetwork
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = ["IterationContext", "build_iteration_context", "derive_marginals"]


class IterationContext:
    """All per-iteration quantities of one routing state, computed once.

    ``dadr`` and ``delta`` are ``None`` when the context was built with
    ``with_derivatives=False`` (recording-only consumers such as the
    distributed runner's per-record cost evaluation) and after a batch of
    :class:`repro.parallel.ParallelBackend`, whose context carries ``dadf``
    only (:func:`derive_marginals` finishes the chain from it).

    A context the engine built (:func:`build_iteration_context`) holds
    ``traffic``, ``dadr`` and ``delta`` as :attr:`cells`, the
    :class:`~repro.core.state.CellVectors` of its model, and builds each
    dense table on first read, then caches it.  One built from tables,
    through this constructor, has no :attr:`cells`.
    """

    cells: Optional[CellVectors] = None

    def __init__(
        self,
        routing: RoutingState,
        traffic: Optional[np.ndarray],  # (J, V): eq. (3)
        edge_usage: np.ndarray,  # (E,): eq. (4)
        node_usage: np.ndarray,  # (V,): eq. (5)
        breakdown: CostBreakdown,  # A = Y + eps * D and its components
        dadf: Optional[np.ndarray],  # (E,): eq. (11)
        dadr: Optional[np.ndarray],  # (J, V): eq. (9)
        delta: Optional[np.ndarray],  # (J, E): eq. (15)'s bracket
    ) -> None:
        self.routing = routing
        self.edge_usage = edge_usage
        self.node_usage = node_usage
        self.breakdown = breakdown
        self.dadf = dadf
        self._traffic = traffic
        self._dadr = dadr
        self._delta = delta

    @classmethod
    def of_cells(
        cls,
        routing: RoutingState,
        cells: CellVectors,
        edge_usage: np.ndarray,
        node_usage: np.ndarray,
        breakdown: CostBreakdown,
        dadf: Optional[np.ndarray],
    ) -> "IterationContext":
        """A context whose tables are built from ``cells`` on first read."""
        context = cls(routing, None, edge_usage, node_usage, breakdown, dadf, None, None)
        context.cells = cells
        return context

    @property
    def traffic(self) -> np.ndarray:
        if self._traffic is None:
            model = self.cells.model
            self._traffic = model.node_table(self.cells.traffic, model.forward)
        return self._traffic

    @property
    def dadr(self) -> Optional[np.ndarray]:
        if self._dadr is None and self.cells is not None and self.cells.dadr is not None:
            model = self.cells.model
            self._dadr = model.node_table(self.cells.dadr, model.reverse)
        return self._dadr

    @property
    def delta(self) -> Optional[np.ndarray]:
        if self._delta is None and self.cells is not None and self.cells.delta is not None:
            self._delta = self.cells.model.edge_table(self.cells.delta)
        return self._delta

    @property
    def cost(self) -> float:
        return float(self.breakdown.total)

    def cell_vectors(self, model: ModelState) -> CellVectors:
        """This context's quantities on ``model``'s layout: its own
        :attr:`cells`, or else gathered from its tables."""
        if self.cells is not None and self.cells.model is model:
            return self.cells
        dadr, delta = self.dadr, self.delta
        return CellVectors(
            model,
            model.node_slots(self.traffic, model.forward),
            None if dadr is None else model.node_slots(dadr, model.reverse),
            None if delta is None else model.edge_cells(delta, model.reverse),
        )


def build_iteration_context(
    ext: ExtendedNetwork,
    routing: RoutingState,
    cost_model: CostModel,
    with_derivatives: bool = True,
    instrumentation=None,
) -> IterationContext:
    """Solve the flow balance once and derive everything an iteration needs.

    Runs on the routing's cell vector (:meth:`ModelState.forward_sweep`,
    :meth:`ModelState.usage_sweep` and :meth:`ModelState.reverse_sweep`)
    and builds no ``(J, E)`` or ``(J, V)`` table.  ``instrumentation`` (``repro.obs.Instrumentation``) times the
    two phases -- the flow solve and the derivative chain -- and counts
    flow solves; it never changes what is computed.
    """
    if instrumentation is None:
        instrumentation = NULL_INSTRUMENTATION
    model = ModelState.of(ext)
    phi = routing.cells(model)
    with instrumentation.phase("flow_solve"):
        phi_f = phi[model.forward_phi]
        traffic, tp = model.forward_sweep(phi_f)
        edge_usage, node_usage = model.usage_sweep(tp)
        breakdown = cost_breakdown(
            ext, cost_model, model.admitted(traffic, phi_f), edge_usage, node_usage
        )
    instrumentation.count("flow_solves")
    dadf = dadr = delta = None
    if with_derivatives:
        with instrumentation.phase("derivatives"):
            dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
            dadr, delta = model.reverse_sweep(phi, dadf)
    return IterationContext.of_cells(
        routing,
        CellVectors(model, traffic, dadr, delta),
        edge_usage,
        node_usage,
        breakdown,
        dadf,
    )


def derive_marginals(
    ext: ExtendedNetwork, routing: RoutingState, dadf: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The reverse marginal-cost wave (eq. (9)) and the edge marginals
    (eq. (15)'s bracket) of ``routing`` under the link derivative ``dadf``,
    as ``(J, V)`` and ``(J, E)`` tables (``delta`` is 0.0 off the allowed
    cells, which every consumer masks away)."""
    model = ModelState.of(ext)
    dadr, delta = model.reverse_sweep(routing.cells(model), dadf)
    return model.node_table(dadr, model.reverse), model.edge_table(delta)
