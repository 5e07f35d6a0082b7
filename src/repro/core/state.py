"""Sparse commodity-major model core: the :class:`ModelState` array API.

Every benchmark before this module topped out around ~120 extended nodes /
a dozen commodities, because the per-iteration hot path carried two dense
``(J, E)`` products -- the usage sum of eq. (4) and the edge-marginal table
of eq. (15) -- plus per-commodity Python loops in the sharded backends.  At
fixed graph density the dense work grows like ``J * (E + V) = O(J^2)``
while the *allowed* cells (the union of the commodities' subgraph edges)
grow only like ``O(J)``: the dense core is asymptotically quadratic in a
linear-sized problem.

:class:`ModelState` stores the hot state commodity-major and flat --
node ``j*V + v``, edge ``j*E + e`` -- so the flow balance (eq. (3)), the
marginal-cost wave (eqs. (9)-(11)) and the resource-usage sum (eq. (4))
all become ordered ``np.bincount`` sweeps over the ``P`` allowed cells
with no per-edge (and no per-commodity) Python in the inner loop.

Bit-identity with the scalar walks
----------------------------------

The scalar reference accumulates floating-point sums in a specific order,
and float addition is not associative, so "mathematically equal" is not
enough -- this repo pins *bit* identity between this engine and the
paper-literal scalar walks (``solve_traffic_scalar``,
``resource_usage_scalar``, ``marginal_cost_to_destination_scalar``,
``compute_blocked_sets_scalar``, ``apply_gamma_at_node``).  Every sweep
here is ``np.bincount(rows, contrib, n)``: each entry carries an integer
``rows`` id naming its output bin, and ``bincount`` adds the weights into
their bins one by one in input order, each bin starting from ``+0.0`` --
the ``((0 + c1) + c2) + ...`` association of the scalar walk, provided the
entries are listed in scalar order:

* **Forward wave.**  Edges are levelled by the *longest-path depth of
  their head*, so every in-edge of a node lands in one level and the
  node's traffic is written exactly once.  Within a level, entries are
  ordered by ``(j, scalar visitation position)``, which is the scalar
  in-edge order of every head.  Every head's external input is zero (only
  dummy sources receive input and they have no in-edges), so starting the
  bin from zero loses nothing.  Skipped zero contributions add exact
  ``+0.0`` over non-negative partial sums, which is why the scalar walk's
  ``frac != 0`` skip cannot change a bit.
* **Reverse wave.**  Nodes are levelled by longest-path height above the
  sink; each node's ``dA/dr`` is one bin over its out-edges in
  ``commodity_out_edges`` order -- the scalar gather's exact order, from
  the same zero start.
* **Usage.**  Cells are ordered ``(j, e)``, so the bin of edge ``e``
  receives its commodity cells in ascending ``j`` -- the per-cell walk of
  ``resource_usage_scalar`` -- and each cell's weight is the scalar
  ``(t * phi) * cost`` product.  Node usage bins the edge usages by tail
  in edge order, as the scalar walk does.
* **Blocked sets.**  The improper-link test is elementwise, and the tag
  flood runs the reverse levels with one ``bincount(...) > 0`` per level:
  a node's out-edges all share one reverse level, so the level writes
  each tag once, as the OR of its out-edges.  Tags are all ``False``
  below the lowest level holding an improper cell, so the flood starts
  there.

A segmented ``np.add.reduce`` / ``np.add.reduceat`` would *not* do.
``reduce`` sums a contiguous run of 8 or more terms pairwise, and
``reduceat`` adds a segment's first term to the sum of the rest,
``c1 + (c2 + c3)``; both drift on the wide rows of the ladder rungs
(fan-in 18, ``Gamma`` width 17 at 1000 nodes), which is why the kernel
tests carry a fan-in-11 instance.

The oracle (``repro.validate.DifferentialOracle.compare_reference``) and
the kernel tests pin all of this against the scalar walks on real and
randomized instances.

Sharding
--------

Because all hot arrays are commodity-major and levels store their entries
sorted by commodity, a parallel shard over commodities ``[lo, hi)`` is a
*contiguous row-block*: :meth:`ModelState.block` precomputes the level
slices once and the block kernels run the same sweeps restricted to the
block; the serial engine's blocked sets are the block ``[0, J)``.  Usage
is the one sum that crosses commodities, so it has no block kernel: the
worker pool runs the full-width :meth:`ModelState.resource_usage` on the
master once every shard's traffic rows have landed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.transform import CommodityGammaPlan, ExtendedNetwork

__all__ = [
    "ModelState",
    "WaveLevel",
    "BlockPlans",
    "use_array_core",
]


def use_array_core() -> bool:
    """Always ``True``: :class:`ModelState` is the only engine.

    Kept only because ``perfbench/core_trace.py`` imports it, and the
    benchmark harness under ``perfbench/`` stays fixed from one change to
    the next so that its runs compare like with like.
    """
    return True


@dataclass(frozen=True)
class WaveLevel:
    """One depth level of a flattened cross-commodity wave.

    ``nodes`` are the level's scatter targets (flat ids, ascending, hence
    grouped by commodity); ``rows`` names each entry's target as a position
    in ``nodes``, so ``np.bincount(rows, contrib, nodes.size)`` sums the
    level's entry contributions into them in exact scalar order.
    ``entry_starts`` / ``node_starts`` are ``(J + 1,)`` commodity
    boundaries into the entry arrays / ``nodes``, which is what makes a
    commodity range a contiguous slice of every array here.
    """

    nodes: np.ndarray  # (n,) flat node ids (j*V + v), ascending
    rows: np.ndarray  # (p,) position of each entry's target in ``nodes``
    edges: np.ndarray  # (p,) flat edge ids (j*E + e), (j, pos) order
    raw: np.ndarray  # (p,) plain edge ids
    tails: np.ndarray  # (p,) flat tail node ids
    heads: np.ndarray  # (p,) flat head node ids
    gains: np.ndarray  # (p,) gain[j, e]
    costs: np.ndarray  # (p,) cost[j, e]
    cell_pos: np.ndarray  # (p,) position of each entry in the cell list
    entry_starts: np.ndarray  # (J + 1,) commodity slices into entries
    node_starts: np.ndarray  # (J + 1,) commodity slices into nodes


@dataclass(frozen=True)
class BlockPlans:
    """Precomputed restriction of a :class:`ModelState` to rows ``[lo, hi)``.

    The per-level tuples hold ``(nodes, rows, edges, raw, tails, heads,
    gains, costs, cell_pos)`` sliced to the block, ``rows`` rebased onto the
    block's ``nodes`` and ``cell_pos`` onto the block's cells;
    ``cell_level`` names the block reverse level of each of the block's
    cells (every cell sits in exactly one), which lets the tag flood skip
    the levels below the first improper cell.  ``gamma_plan`` is the
    contiguous row-block of the merged Gamma plan (``None`` when the block
    has no branch nodes).
    """

    lo: int
    hi: int
    forward: Tuple[tuple, ...]
    reverse: Tuple[tuple, ...]
    cell_lo: int
    cell_hi: int
    cell_level: np.ndarray
    gamma_plan: Optional[CommodityGammaPlan]


def _level_split(keys: np.ndarray) -> List[Tuple[int, int]]:
    """``[(s, e), ...]`` slices of equal consecutive values in sorted ``keys``."""
    if keys.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [keys.size]))
    return list(zip(starts.tolist(), ends.tolist()))


class ModelState:
    """Flat commodity-major hot state of one :class:`ExtendedNetwork`.

    Obtain via :meth:`ModelState.of` -- the instance is cached on the
    network.  The structure depends only on the network's *topology* (the
    allowed edge sets, plans, gains and costs), which never mutates in
    place: scalar patches touch capacities/rates only and structural
    events splice a brand-new network, so an id-keyed cache is safe across
    epochs.
    """

    def __init__(self, ext: ExtendedNetwork) -> None:
        self.ext = ext
        J, E, V = ext.num_commodities, ext.num_edges, ext.num_nodes
        self.num_commodities = J
        self.num_edges = E
        self.num_nodes = V
        self.edge_tail = ext.edge_tail

        plans = ext.flow_plans

        # -- cell list: every allowed (j, e), ordered by (j, e) ----------------
        cell_parts_e: List[np.ndarray] = []
        for j in range(J):
            cell_parts_e.append(np.asarray(ext.commodity_edge_arrays[j], dtype=np.intp))
        cell_counts = np.array([part.size for part in cell_parts_e], dtype=np.intp)
        raw_cells = (
            np.concatenate(cell_parts_e) if cell_parts_e else np.empty(0, dtype=np.intp)
        )
        cell_j = np.repeat(np.arange(J, dtype=np.intp), cell_counts)
        self.cell_raw = raw_cells
        self.cell_edges = cell_j * E + raw_cells
        self.cell_tails = cell_j * V + ext.edge_tail[raw_cells]
        self.cell_heads = cell_j * V + ext.edge_head[raw_cells]
        self.cell_cost = np.ascontiguousarray(ext.cost[cell_j, raw_cells])
        self.cell_gain = np.ascontiguousarray(ext.gain[cell_j, raw_cells])
        self.cell_g_tail = np.ascontiguousarray(
            ext.node_potentials[cell_j, ext.edge_tail[raw_cells]]
        )
        self.cell_g_head = np.ascontiguousarray(
            ext.node_potentials[cell_j, ext.edge_head[raw_cells]]
        )
        self.cell_starts = np.concatenate(
            ([0], np.cumsum(cell_counts))
        ).astype(np.intp)
        self.num_cells = int(self.cell_edges.size)

        # position of a flat edge in the cell list (for the tag flood)
        cell_lookup = np.full(J * E, -1, dtype=np.intp)
        cell_lookup[self.cell_edges] = np.arange(self.num_cells, dtype=np.intp)

        # -- depth levelling ---------------------------------------------------
        fwd_rows: List[Tuple[np.ndarray, ...]] = []
        rev_rows: List[Tuple[np.ndarray, ...]] = []
        for j in range(J):
            plan = plans[j]
            p = plan.edges.size
            if p == 0:
                continue
            depth = np.zeros(V, dtype=np.intp)
            height = np.zeros(V, dtype=np.intp)
            offsets = plan.offsets
            nblocks = len(offsets) - 1
            for b in range(nblocks):
                s, e = offsets[b], offsets[b + 1]
                np.maximum.at(depth, plan.heads[s:e], depth[plan.tails[s:e]] + 1)
            for b in range(nblocks - 1, -1, -1):
                s, e = offsets[b], offsets[b + 1]
                np.maximum.at(height, plan.tails[s:e], height[plan.heads[s:e]] + 1)
            pos = np.arange(p, dtype=np.intp)
            j_col = np.full(p, j, dtype=np.intp)
            fwd_rows.append(
                (depth[plan.heads], j_col, pos, plan.edges, plan.tails, plan.heads,
                 plan.gains, plan.costs)
            )
            rev_rows.append(
                (height[plan.tails], j_col, pos, plan.edges, plan.tails, plan.heads,
                 plan.gains, plan.costs)
            )

        def build_levels(rows: List[Tuple[np.ndarray, ...]], by_head: bool):
            if not rows:
                return ()
            key = np.concatenate([r[0] for r in rows])
            j_col = np.concatenate([r[1] for r in rows])
            pos = np.concatenate([r[2] for r in rows])
            edges = np.concatenate([r[3] for r in rows])
            tails = np.concatenate([r[4] for r in rows])
            heads = np.concatenate([r[5] for r in rows])
            gains = np.concatenate([r[6] for r in rows])
            costs = np.concatenate([r[7] for r in rows])
            order = np.lexsort((pos, j_col, key))
            key, j_col = key[order], j_col[order]
            edges, tails, heads = edges[order], tails[order], heads[order]
            gains, costs = gains[order], costs[order]
            flat_edges = j_col * E + edges
            flat_tails = j_col * V + tails
            flat_heads = j_col * V + heads
            levels = []
            j_range = np.arange(J + 1, dtype=np.intp)
            for s, e in _level_split(key):
                scatter = flat_heads[s:e] if by_head else flat_tails[s:e]
                nodes, rows = np.unique(scatter, return_inverse=True)
                levels.append(
                    WaveLevel(
                        nodes=nodes,
                        rows=rows,
                        edges=flat_edges[s:e],
                        raw=edges[s:e],
                        tails=flat_tails[s:e],
                        heads=flat_heads[s:e],
                        gains=np.ascontiguousarray(gains[s:e]),
                        costs=np.ascontiguousarray(costs[s:e]),
                        cell_pos=cell_lookup[flat_edges[s:e]],
                        entry_starts=np.searchsorted(j_col[s:e], j_range).astype(
                            np.intp
                        ),
                        node_starts=np.searchsorted(nodes // V, j_range).astype(
                            np.intp
                        ),
                    )
                )
            return tuple(levels)

        self.forward_levels = build_levels(fwd_rows, by_head=True)
        self.reverse_levels = build_levels(rev_rows, by_head=False)

        # merged Gamma plan row boundaries per commodity (rows are appended
        # in commodity order by _build_merged_gamma_plan)
        gamma_counts = np.array(
            [ext.gamma_plans[j].nodes.size for j in range(J)], dtype=np.intp
        )
        self.gamma_starts = np.concatenate(([0], np.cumsum(gamma_counts))).astype(
            np.intp
        )

        self._blocks: Dict[Tuple[int, int], BlockPlans] = {}

    # -- construction / caching ----------------------------------------------------
    @classmethod
    def of(cls, ext: ExtendedNetwork) -> "ModelState":
        """The (cached) array state of ``ext``; builds on first use."""
        state = getattr(ext, "_model_state", None)
        if state is None:
            state = cls(ext)
            ext._model_state = state
        return state

    # -- full-width kernels ----------------------------------------------------------
    def solve_traffic_into(self, t_flat: np.ndarray, phi_flat: np.ndarray) -> None:
        """Eq. (3) forward wave over ``t_flat`` (pre-filled with external
        inputs), one ordered ``np.bincount`` per depth level."""
        for lv in self.forward_levels:
            contrib = t_flat[lv.tails] * phi_flat[lv.edges] * lv.gains
            t_flat[lv.nodes] = np.bincount(lv.rows, contrib, lv.nodes.size)

    def resource_usage(
        self, phi_flat: np.ndarray, t_flat: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eqs. (4)-(5) from the allowed cells only: ``O(P + E)``, not
        ``O(J * E)``.

        This is the one sum across commodities, so it always runs over the
        whole cell list: the worker pool calls it on the master once every
        shard's traffic rows have landed.
        """
        contrib = t_flat[self.cell_tails] * phi_flat[self.cell_edges] * self.cell_cost
        edge_usage = np.bincount(self.cell_raw, contrib, self.num_edges)
        node_usage = np.bincount(self.edge_tail, edge_usage, self.num_nodes)
        return edge_usage, node_usage

    def marginal_costs_into(
        self, dadr_flat: np.ndarray, phi_flat: np.ndarray, dadf: np.ndarray
    ) -> None:
        """Eq. (9) reverse wave into ``dadr_flat`` (pre-zeroed)."""
        for lv in self.reverse_levels:
            contrib = phi_flat[lv.edges] * (
                dadf[lv.raw] * lv.costs + lv.gains * dadr_flat[lv.heads]
            )
            dadr_flat[lv.nodes] = np.bincount(lv.rows, contrib, lv.nodes.size)

    def marginal_costs(self, phi_flat: np.ndarray, dadf: np.ndarray) -> np.ndarray:
        dadr = np.zeros((self.num_commodities, self.num_nodes), dtype=float)
        self.marginal_costs_into(dadr.reshape(-1), phi_flat, dadf)
        return dadr

    def edge_marginals_dense(
        self, dadf: np.ndarray, dadr_flat: np.ndarray
    ) -> np.ndarray:
        """Eq. (15)'s bracket as a sparse-filled ``(J, E)`` table.

        Allowed cells carry the exact dense expression; off-graph cells are
        0.0 (the dense :func:`repro.core.marginals.all_edge_marginals`
        table leaves ``dadr[head]`` there, but every consumer of the
        iteration context's ``delta`` masks to allowed cells, so the
        difference is unobservable).
        """
        delta = np.zeros((self.num_commodities, self.num_edges), dtype=float)
        delta.reshape(-1)[self.cell_edges] = (
            dadf[self.cell_raw] * self.cell_cost
            + self.cell_gain * dadr_flat[self.cell_heads]
        )
        return delta

    # -- row-block kernels (the worker pool's shards) -----------------------------------
    def block(self, lo: int, hi: int) -> BlockPlans:
        """The cached restriction of every plan to commodities ``[lo, hi)``."""
        key = (lo, hi)
        plans = self._blocks.get(key)
        if plans is not None:
            return plans

        c0, c1 = int(self.cell_starts[lo]), int(self.cell_starts[hi])

        def slice_levels(levels: Tuple[WaveLevel, ...]) -> Tuple[tuple, ...]:
            out = []
            for lv in levels:
                s, e = int(lv.entry_starts[lo]), int(lv.entry_starts[hi])
                if s == e:
                    continue
                r0, r1 = int(lv.node_starts[lo]), int(lv.node_starts[hi])
                out.append(
                    (
                        lv.nodes[r0:r1],
                        lv.rows[s:e] - r0,
                        lv.edges[s:e],
                        lv.raw[s:e],
                        lv.tails[s:e],
                        lv.heads[s:e],
                        lv.gains[s:e],
                        lv.costs[s:e],
                        lv.cell_pos[s:e] - c0,
                    )
                )
            return tuple(out)

        reverse = slice_levels(self.reverse_levels)
        cell_level = np.zeros(c1 - c0, dtype=np.intp)
        for k, level in enumerate(reverse):
            cell_level[level[8]] = k

        g0, g1 = int(self.gamma_starts[lo]), int(self.gamma_starts[hi])
        gamma_plan: Optional[CommodityGammaPlan] = None
        if g1 > g0:
            merged = self.ext.merged_gamma_plan
            gamma_plan = CommodityGammaPlan(
                nodes=merged.nodes[g0:g1],
                edge_matrix=merged.edge_matrix[g0:g1],
                valid=merged.valid[g0:g1],
            )

        plans = BlockPlans(
            lo=lo,
            hi=hi,
            forward=slice_levels(self.forward_levels),
            reverse=reverse,
            cell_lo=c0,
            cell_hi=c1,
            cell_level=cell_level,
            gamma_plan=gamma_plan,
        )
        self._blocks[key] = plans
        return plans

    def solve_traffic_block(
        self, t_flat: np.ndarray, phi_flat: np.ndarray, lo: int, hi: int
    ) -> None:
        """Forward wave restricted to rows ``[lo, hi)`` (rows pre-filled
        with external inputs).  Reads and writes only the block's rows."""
        for nodes, rows, edges, _raw, tails, _heads, gains, _costs, _cp in self.block(
            lo, hi
        ).forward:
            contrib = t_flat[tails] * phi_flat[edges] * gains
            t_flat[nodes] = np.bincount(rows, contrib, nodes.size)

    def marginal_costs_block(
        self,
        dadr_flat: np.ndarray,
        phi_flat: np.ndarray,
        dadf: np.ndarray,
        lo: int,
        hi: int,
    ) -> None:
        """Reverse wave restricted to rows ``[lo, hi)`` (rows pre-zeroed)."""
        for nodes, rows, edges, raw, _tails, heads, gains, costs, _cp in self.block(
            lo, hi
        ).reverse:
            contrib = phi_flat[edges] * (dadf[raw] * costs + gains * dadr_flat[heads])
            dadr_flat[nodes] = np.bincount(rows, contrib, nodes.size)

    def edge_marginals_block(
        self,
        delta_flat: np.ndarray,
        dadf: np.ndarray,
        dadr_flat: np.ndarray,
        lo: int,
        hi: int,
    ) -> None:
        """Sparse-fill the block's rows of the ``delta`` table (rows
        pre-zeroed)."""
        plans = self.block(lo, hi)
        c0, c1 = plans.cell_lo, plans.cell_hi
        delta_flat[self.cell_edges[c0:c1]] = (
            dadf[self.cell_raw[c0:c1]] * self.cell_cost[c0:c1]
            + self.cell_gain[c0:c1] * dadr_flat[self.cell_heads[c0:c1]]
        )

    def blocked_sets_block(
        self,
        blocked_flat: np.ndarray,
        phi_flat: np.ndarray,
        t_flat: np.ndarray,
        dadr_flat: np.ndarray,
        delta_flat: np.ndarray,
        eta: float,
        lo: int,
        hi: int,
        phi_zero_tol: float = 1e-12,
        phi_positive_tol: float = 1e-12,
    ) -> bool:
        """Eq. (18) blocked sets for rows ``[lo, hi)``, written into the
        pre-cleared ``blocked_flat``; returns whether anything is blocked.

        The same comparisons as :func:`repro.core.blocking.
        compute_blocked_sets_scalar`, over the block's cells at once;
        :func:`repro.core.blocking.compute_all_blocked_sets` is the block
        ``[0, J)``.  The tag flood runs the block's reverse levels from the
        lowest one holding an improper cell: below it every tag is
        ``False``.  A node's out-edges share one reverse level, so each
        level writes its nodes' tags once, as the OR of their out-edges.
        """
        plans = self.block(lo, hi)
        c0, c1 = plans.cell_lo, plans.cell_hi
        if c1 == c0:
            return False
        fe = self.cell_edges[c0:c1]
        ft = self.cell_tails[c0:c1]
        fh = self.cell_heads[c0:c1]
        frac = phi_flat[fe]
        t_tail = t_flat[ft]
        dadr_tail = dadr_flat[ft]
        carries = frac > phi_positive_tol
        uphill = (
            self.cell_g_tail[c0:c1] * dadr_tail
            <= self.cell_g_head[c0:c1] * dadr_flat[fh]
        )
        movable = t_tail > 0.0
        threshold = (eta / np.where(movable, t_tail, 1.0)) * (
            delta_flat[fe] - dadr_tail
        )
        improper = carries & uphill & movable & (frac >= threshold)
        if not improper.any():
            return False

        first = int(plans.cell_level[improper].min())
        tags = np.zeros(self.num_commodities * self.num_nodes, dtype=bool)
        for nodes, rows, _e, _r, _t, heads, _g, _c, pos in plans.reverse[first:]:
            contrib = improper[pos] | (carries[pos] & tags[heads])
            tags[nodes] = np.bincount(rows, contrib, nodes.size) > 0
        blocked = (frac <= phi_zero_tol) & tags[fh]
        blocked_flat[fe] = blocked
        return bool(blocked.any())
