"""Blocked sets ``B_i(j)`` and tag propagation (paper, Section 5, eq. (18)).

The update map ``Gamma`` must not increase a routing fraction ``phi_ik(j)``
from zero when doing so could create a routing loop or route toward a region
whose marginal costs are momentarily inverted.  Following Gallager's
construction, a node ``k`` is *blocked* relative to destination ``j`` if some
routing path from ``k`` to ``j`` contains an **improper link** ``(l, m)``:

* ``phi_lm(j) > 0``                                  (the link carries flow),
* ``g_l(j) * dA/dr_l(j) <= g_m(j) * dA/dr_m(j)``      (it points "uphill"), and
* ``phi_lm(j) >= (eta / t_l(j)) * (delta_lm(j) - dA/dr_l(j))``  (eq. (18):
  the update cannot zero it out this iteration).

Note the node potentials ``g`` in the second condition: the paper states the
test as ``dA/dr_l <= dA/dr_m`` (Gallager's original, where flow is conserved
and the marginal cost per unit decreases monotonically toward the sink).
With shrinkage (``beta < 1``) a unit at the downstream node represents *more*
source data than a unit upstream, so per-local-unit marginals legitimately
rise across shrinking operators and the verbatim test misfires, permanently
blocking optimal edges (we reproduce this failure in the test suite).
Comparing in source-equivalent units -- scaling each node's marginal by its
cumulative gain ``g`` -- restores the monotone potential Gallager's argument
needs and reduces to the paper's condition whenever ``beta == 1``.  Recorded
as deviation D1 in DESIGN.md.

The distributed protocol realises this with a one-bit *tag* piggybacked on
the marginal-cost broadcast: a node tags its broadcast if one of its own
out-links is improper or if any positive-``phi`` downstream neighbour's
broadcast was tagged; hence tags flood upstream.  ``B_i(j)`` is then the set
of neighbours ``k`` with ``phi_ik(j) = 0`` whose broadcast arrived tagged.

The engine computes exactly the tags that protocol would deliver with
:meth:`repro.core.state.ModelState.blocked_sweep`, one reverse-level sweep
over every commodity's cells; :func:`compute_all_blocked_sets` wraps it for
dense tables, and the worker pool's shards run its row-block twin
:meth:`~repro.core.state.ModelState.blocked_sets_block`.  The
per-commodity functions below are the paper-literal scalar walks it is
pinned bit-identical against (the message-passing version lives in
:mod:`repro.simulation.agent` and is tested to agree).
"""

from __future__ import annotations

import numpy as np

from repro.core.routing import RoutingState
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork

__all__ = [
    "improper_links",
    "node_tags",
    "compute_all_blocked_sets",
    "compute_blocked_sets_scalar",
]


def improper_links(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Boolean mask over edges: is edge ``e`` an improper link for commodity ``j``?

    Scalar walk of the three conditions above over the commodity's allowed
    edges.  A tail with ``t_l(j) = 0`` can always zero the link in one
    update (``Delta = phi``), so such links are never improper.
    """
    phi = routing.phi[j]
    g = ext.node_potentials[j]
    improper = np.zeros(ext.num_edges, dtype=bool)
    for e in ext.commodities[j].edge_indices:
        frac = phi[e]
        if frac <= phi_positive_tol:
            continue
        tail = ext.edge_tail[e]
        head = ext.edge_head[e]
        if g[tail] * dadr[tail] > g[head] * dadr[head]:
            continue
        t_tail = traffic[j, tail]
        if t_tail <= 0.0:
            continue  # the update can fully remove this link's fraction
        threshold = (eta / t_tail) * (delta[e] - dadr[tail])
        if frac >= threshold:
            improper[e] = True
    return improper


def node_tags(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    improper: np.ndarray,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Propagate tags upstream: ``tag[l]`` iff some routing path from ``l`` to
    the sink crosses an improper link.

    Walks the commodity's nodes in reverse topological order -- the same
    upstream wave the protocol's broadcast performs: a node is tagged if
    one of its out-links is improper or carries flow to a tagged head.
    """
    phi = routing.phi[j]
    view = ext.commodities[j]
    tags = np.zeros(ext.num_nodes, dtype=bool)
    out_lists = ext.commodity_out_edges[j]
    for node in reversed(view.topo_order):
        if node == view.sink:
            continue
        for e in out_lists[node]:
            if improper[e] or (
                phi[e] > phi_positive_tol and tags[ext.edge_head[e]]
            ):
                tags[node] = True
                break
    return tags


def compute_all_blocked_sets(
    ext: ExtendedNetwork,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_zero_tol: float = 1e-12,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Blocked sets of every commodity in one pass: ``(J, E)`` bool.

    ``blocked[j, e]`` iff ``head(e) in B_tail(e)(j)``: a blocked edge must
    keep ``phi = 0`` in the coming update (eq. (14)).  ``dadr`` and
    ``delta`` are the stacked ``(J, V)`` / ``(J, E)`` arrays.  Gathers them
    onto the cells, runs :meth:`~repro.core.state.ModelState.blocked_sweep`
    and scatters the result; row ``j`` is identical to
    :func:`compute_blocked_sets_scalar`.
    """
    model = ModelState.of(ext)
    blocked = model.blocked_sweep(
        routing.cells(model),
        model.node_slots(traffic, model.forward),
        model.node_slots(dadr, model.reverse),
        model.edge_cells(delta, model.reverse),
        eta,
        phi_zero_tol,
        phi_positive_tol,
    )
    if blocked is None:
        return np.zeros((ext.num_commodities, ext.num_edges), dtype=bool)
    return model.edge_table(blocked)


def compute_blocked_sets_scalar(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_zero_tol: float = 1e-12,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Boolean mask over edges: ``blocked[e]`` iff ``head(e) in B_tail(e)(j)``.

    The scalar reference: :func:`improper_links`, then :func:`node_tags`,
    then a walk over the commodity's edges.  Only zero-``phi`` edges toward
    tagged heads are blocked -- edges already carrying flow are handled by
    the reduction rule instead.
    """
    improper = improper_links(
        ext, j, routing, traffic, dadr, delta, eta, phi_positive_tol
    )
    tags = node_tags(ext, j, routing, improper, phi_positive_tol)
    phi = routing.phi[j]
    blocked = np.zeros(ext.num_edges, dtype=bool)
    for e in ext.commodities[j].edge_indices:
        if phi[e] <= phi_zero_tol and tags[ext.edge_head[e]]:
            blocked[e] = True
    return blocked
