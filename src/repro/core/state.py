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

One compiled form
-----------------

:class:`ModelState` is the only compiled form of an
:class:`~repro.core.transform.ExtendedNetwork`, and its constructor
derives every array straight from the network in one vectorized pass over
all commodities:

* the cells are ``np.nonzero(ext.allowed)``, in ``(j, e)`` order;
* a cell's scalar visitation position is ``(j, topo rank of its tail,
  e)``, the rank taken from the commodity view's ``topo_order``;
* depth and height levels come from one longest-path relaxation each
  over the nodes the cells touch (:func:`_longest_paths`);
* each wave (:class:`Wave`) is one lexsort of the cells by ``(level,
  scalar position)``, and a level (:class:`WaveLevel`) is a slice of it;
* the Gamma rows (:class:`GammaPlan`) are a stable sort of the cells by
  flat tail, keeping every non-sink tail with two or more cells.

Nothing else is compiled, and nothing is carried across epochs: a scalar
patch keeps the cached instance, and a structural splice
(:mod:`repro.core.delta`) hands over a new network that compiles afresh
on first use.

The cell layout
---------------

The serial engine iterates on vectors over the cells and the touched
nodes, never on ``(J, E)`` or ``(J, V)`` tables:

* a routing is a *cell vector*: one fraction per entry of the reverse
  wave, in its order (:meth:`repro.core.routing.RoutingState.cells`);
* each wave numbers the nodes the cells touch by ``(level key, flat id)``
  into *slots*: traffic lives on the forward wave's slots, the roots (the
  dummy sources) first, and ``dA/dr`` and the blocking tags on the
  reverse wave's, the sinks first.  A level's targets are then one
  contiguous slice of slots, in the ascending flat-id order
  ``np.unique`` gave them, so a level writes its bins with one slice
  store, and its ``rows`` are each target's slot less the level's first;
* the gather maps -- ``forward_phi`` (a forward entry's place in the cell
  vector), ``cell_forward`` (a cell's forward entry, so usage reads
  ``t * phi`` back from the forward wave), ``reverse_traffic_slots`` (the
  traffic slot of a reverse entry's tail), ``dummy_slots``,
  ``input_entries`` and :attr:`ModelState.gamma_cells` (the Gamma rows
  with reverse entries for targets and traffic slots for nodes) -- are
  permutations and gathers of the two sorts, compiled in the same pass.

Neither the slot numbering nor the maps change the order of any sum.
Every bin still receives the same entries in the same order -- the
entries are listed in each wave's order as before, and a bin's number
is only its name -- and every product is formed from the same operands
in the same association, so the bit-identity argument below carries over
unchanged.  A dense table exists only where a caller reads one: the
per-equation functions (``solve_traffic``, ``resource_usage``,
``all_marginal_costs``, ``compute_all_blocked_sets``) gather a routing's
cell vector, run the sweep and scatter the result.

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
  the same zero start.  Each entry's eq. (15) bracket ``dadf * c + beta *
  dA/dr_head`` is formed on the way, after its head's level is final: the
  value the scalar ``edge_marginals`` computes from the finished wave.
* **Usage.**  Cells are ordered ``(j, e)``, so the bin of edge ``e``
  receives its commodity cells in ascending ``j`` -- the per-cell walk of
  ``resource_usage_scalar`` -- and each cell's weight is the scalar
  ``(t * phi) * cost`` product, its ``t * phi`` the one the forward wave
  formed.  Node usage bins the edge usages by tail in edge order, as the
  scalar walk does.
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
block, on the dense flat tables the worker pool shares.  Usage is the
one sum that crosses commodities, so it has no block kernel: the worker
pool runs the full-width :meth:`ModelState.usage_sweep` on the master
once every shard's traffic rows have landed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.transform import ExtendedNetwork

__all__ = [
    "ModelState",
    "Wave",
    "WaveLevel",
    "CellVectors",
    "GammaPlan",
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
    """One depth level of a :class:`Wave`: its entries ``start:stop``.

    Every array here is a view of the wave's array of the same name.
    ``nodes`` are the level's scatter targets (flat ids, ascending, hence
    grouped by commodity), which own the wave's slots ``slot`` to
    ``slot + nodes.size``; ``rows`` names each entry's target as a position
    in ``nodes``, so ``np.bincount(rows, contrib, nodes.size)`` sums the
    level's entry contributions into them in exact scalar order.
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
    tail_slots: np.ndarray  # (p,) slot of each entry's tail
    head_slots: np.ndarray  # (p,) slot of each entry's head
    start: int  # the level's entries are the wave's start:stop
    stop: int
    slot: int  # the slot of nodes[0]


@dataclass(frozen=True)
class Wave:
    """Every cell once, level after level: one cross-commodity wave.

    Entry ``i`` is the cell at position ``cell_pos[i]`` of the cell list,
    and each per-entry array is the cell array of the same name in that
    order.  Each node a commodity touches owns one slot, and ``nodes``
    names the flat node of each; ``levels`` cut both into
    :class:`WaveLevel` slices.
    """

    cell_pos: np.ndarray  # (P,) position of each entry in the cell list
    edges: np.ndarray  # (P,) flat edge ids
    raw: np.ndarray  # (P,) plain edge ids
    tails: np.ndarray  # (P,) flat tail node ids
    heads: np.ndarray  # (P,) flat head node ids
    gains: np.ndarray  # (P,) gain[j, e]
    costs: np.ndarray  # (P,) cost[j, e]
    g_tails: np.ndarray  # (P,) node potential g_tail(j)
    g_heads: np.ndarray  # (P,) node potential g_head(j)
    tail_slots: np.ndarray  # (P,) slot of each entry's tail
    head_slots: np.ndarray  # (P,) slot of each entry's head
    nodes: np.ndarray  # (S,) flat node id of each slot
    levels: Tuple[WaveLevel, ...]


@dataclass(frozen=True)
class CellVectors:
    """One routing state's iteration quantities on a :class:`ModelState`'s
    layout: what :class:`repro.core.context.IterationContext` holds when the
    engine built it.

    ``traffic`` is eq. (3)'s ``t`` per forward slot; ``dadr`` is eq. (9)'s
    ``dA/dr`` per reverse slot and ``delta`` eq. (15)'s bracket per reverse
    entry, both ``None`` without derivatives.
    """

    model: "ModelState"
    traffic: np.ndarray
    dadr: Optional[np.ndarray]
    delta: Optional[np.ndarray]


@dataclass(frozen=True)
class GammaPlan:
    """The rows the batched update map ``Gamma`` (eqs. (14)-(17)) moves.

    A row is a flat node ``j*V + v`` that is not commodity ``j``'s sink and
    has at least two allowed out-edges (a single out-edge always carries
    fraction 1).  Rows ascend by flat id, so they are grouped by commodity.
    ``targets`` lists every row's out-edges as flat edge ids, row after
    row, each row's in ascending edge id -- the ``commodity_out_edges``
    order :func:`repro.core.gradient.apply_gamma_at_node` walks.
    """

    nodes: np.ndarray  # (N,) flat node ids (j*V + v), ascending
    targets: np.ndarray  # (C,) flat edge ids (j*E + e), row-major
    cell_rows: np.ndarray  # (C,) row of each target, ascending
    row_starts: np.ndarray  # (N,) first target of each row


@dataclass(frozen=True)
class BlockPlans:
    """Precomputed restriction of a :class:`ModelState` to rows ``[lo, hi)``.

    The per-level tuples hold ``(nodes, rows, edges, raw, tails, heads,
    gains, costs, cell_pos)`` sliced to the block, ``rows`` rebased onto the
    block's ``nodes`` and ``cell_pos`` onto the block's cells;
    ``cell_level`` names the block reverse level of each of the block's
    cells (every cell sits in exactly one), which lets the tag flood skip
    the levels below the first improper cell.  ``gamma_plan`` is the
    contiguous row-block of :attr:`ModelState.gamma_plan` (``None`` when the
    block has no branch nodes).
    """

    lo: int
    hi: int
    forward: Tuple[tuple, ...]
    reverse: Tuple[tuple, ...]
    cell_lo: int
    cell_hi: int
    cell_level: np.ndarray
    gamma_plan: Optional[GammaPlan]


def _longest_paths(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Longest path, in cells, from a root of the ``src -> dst`` cells to each
    of the ``n`` nodes (0 at a root).

    The relaxation reaches its fixpoint after as many rounds as the longest
    path has cells, because every commodity subgraph is a DAG
    (:func:`repro.core.transform._fill_commodity_row` checks it).
    """
    dist = np.zeros(n, dtype=np.intp)
    while True:
        reach = dist[src] + 1
        grow = reach > dist[dst]
        if not grow.any():
            return dist
        np.maximum.at(dist, dst[grow], reach[grow])


def _inverse(perm: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return inverse


class ModelState:
    """Flat commodity-major hot state of one :class:`ExtendedNetwork`.

    Obtain via :meth:`ModelState.of` -- the instance is cached on the
    network.  The structure depends only on the network's *topology* (the
    allowed edge sets, topological orders, gains and costs), which never
    mutates in place: scalar patches touch capacities/rates only and
    structural events splice a brand-new network, so the cache is safe
    across epochs.
    """

    def __init__(self, ext: ExtendedNetwork) -> None:
        self.ext = ext
        J, E, V = ext.num_commodities, ext.num_edges, ext.num_nodes
        self.num_commodities = J
        self.num_edges = E
        self.num_nodes = V
        self.edge_tail = ext.edge_tail

        # -- cell list: every allowed (j, e), ordered by (j, e) ----------------
        cell_j, raw = np.nonzero(ext.allowed)
        tail, head = ext.edge_tail[raw], ext.edge_head[raw]
        self.cell_raw = raw
        self.cell_edges = cell_j * E + raw
        self.cell_tails = cell_j * V + tail
        self.cell_heads = cell_j * V + head
        self.cell_cost = ext.cost[cell_j, raw]
        self.cell_gain = ext.gain[cell_j, raw]
        self.cell_g_tail = ext.node_potentials[cell_j, tail]
        self.cell_g_head = ext.node_potentials[cell_j, head]
        self.cell_starts = np.searchsorted(cell_j, np.arange(J + 1))
        self.num_cells = int(raw.size)

        # -- waves -------------------------------------------------------------
        # every node a cell touches, numbered by its position in the
        # commodity-major concatenation of the topological orders
        topo = np.concatenate(
            [np.asarray(v.topo_order, dtype=np.intp) + j * V
             for j, v in enumerate(ext.commodities)]
        )
        rank = np.empty(J * V, dtype=np.intp)
        rank[topo] = np.arange(topo.size)
        tail_rank, head_rank = rank[self.cell_tails], rank[self.cell_heads]
        depth = _longest_paths(tail_rank, head_rank, topo.size)
        height = _longest_paths(head_rank, tail_rank, topo.size)
        self.forward = self._wave(depth, tail_rank, head_rank, topo, by_head=True)
        self.reverse = self._wave(height, tail_rank, head_rank, topo, by_head=False)
        self.forward_levels = self.forward.levels
        self.reverse_levels = self.reverse.levels

        # -- the engine's cell layout ------------------------------------------
        # a routing's cell vector lists phi per reverse entry; the forward
        # wave reads it through forward_phi, and usage reads t * phi per
        # cell from the forward wave through cell_forward
        self.cell_forward = _inverse(self.forward.cell_pos)
        self.cell_reverse = _inverse(self.reverse.cell_pos)
        self.forward_phi = self.cell_reverse[self.forward.cell_pos]
        # forward (traffic) slot of each reverse entry's tail
        self.reverse_traffic_slots = self.forward.tail_slots[
            self.cell_forward[self.reverse.cell_pos]
        ]
        input_cells = np.searchsorted(
            self.cell_edges, np.arange(J) * E + ext.commodity_input_edges
        )
        # each commodity's input edge (forward entry), and the traffic slot
        # of its tail, the dummy source
        self.input_entries = self.cell_forward[input_cells]
        self.dummy_slots = self.forward.tail_slots[self.input_entries]
        self._reverse_starts = [lv.start for lv in self.reverse_levels]
        # the forward wave's per-level operands, unpacked once: every flow
        # solve runs this loop, and the emergency shed's bisection runs up
        # to 17 of them per batch
        self._forward_loop = [
            (lv.tail_slots, lv.rows, lv.gains, lv.start, lv.stop, lv.slot,
             lv.slot + lv.nodes.size)
            for lv in self.forward_levels
        ]

        # -- Gamma rows: each commodity's non-sink nodes with >= 2 cells -------
        by_tail = np.argsort(self.cell_tails, kind="stable")
        tails = self.cell_tails[by_tail]
        first = np.flatnonzero(np.diff(tails, prepend=-1))
        size = np.diff(first, append=tails.size)
        node = tails[first]
        sinks = np.array(
            [v.sink + j * V for j, v in enumerate(ext.commodities)], dtype=np.intp
        )
        is_row = (size >= 2) & (node != sinks[node // V])
        row_size = size[is_row]
        target_cells = by_tail[np.repeat(is_row, size)]
        self.gamma_plan = GammaPlan(
            nodes=node[is_row],
            targets=self.cell_edges[target_cells],
            cell_rows=np.repeat(np.arange(row_size.size), row_size),
            row_starts=np.cumsum(row_size) - row_size,
        )
        self.gamma_starts = np.searchsorted(
            self.gamma_plan.nodes // V, np.arange(J + 1)
        )
        # the same rows over the engine's vectors: targets are reverse
        # entries and nodes traffic slots
        gamma_entries = self.cell_reverse[target_cells]
        self.gamma_cells = GammaPlan(
            nodes=self.reverse_traffic_slots[gamma_entries[self.gamma_plan.row_starts]],
            targets=gamma_entries,
            cell_rows=self.gamma_plan.cell_rows,
            row_starts=self.gamma_plan.row_starts,
        )

        self._blocks: Dict[Tuple[int, int], BlockPlans] = {}

    def _wave(
        self,
        key: np.ndarray,
        tail_rank: np.ndarray,
        head_rank: np.ndarray,
        topo: np.ndarray,
        by_head: bool,
    ) -> Wave:
        """Level the cells by the ``key`` of the node each writes -- its head
        forward, its tail in reverse; within a level, entries in scalar
        visitation order ``(j, topo rank of tail, e)``.

        Slots order the nodes by ``(key, flat id)``: the key-0 nodes (roots
        forward, sinks in reverse) first, then each level's targets as one
        slice, ascending.
        """
        target_rank = head_rank if by_head else tail_rank
        entry_key = key[target_rank]
        # tail ranks are commodity-major, and the stable sort keeps the
        # cells' (j, e) order among a tail's out-edges
        order = np.lexsort((tail_rank, entry_key))
        by_slot = np.lexsort((topo, key))
        slot_of = _inverse(by_slot)
        num_keys = int(key.max()) + 1
        first_slot = np.zeros(num_keys + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=num_keys), out=first_slot[1:])
        first_entry = np.zeros(num_keys + 1, dtype=np.intp)
        np.cumsum(np.bincount(entry_key, minlength=num_keys), out=first_entry[1:])

        tail_slots = slot_of[tail_rank[order]]
        head_slots = slot_of[head_rank[order]]
        per_entry = dict(
            edges=self.cell_edges[order],
            raw=self.cell_raw[order],
            tails=self.cell_tails[order],
            heads=self.cell_heads[order],
            gains=self.cell_gain[order],
            costs=self.cell_cost[order],
            cell_pos=order,
            tail_slots=tail_slots,
            head_slots=head_slots,
        )
        target_slots = head_slots if by_head else tail_slots
        rows = target_slots - first_slot[entry_key[order]]
        nodes = topo[by_slot]
        # every key from 1 up holds entries: a node's longest path passes
        # through every smaller key
        entries, slots = first_entry.tolist(), first_slot.tolist()
        levels = []
        for q in range(1, num_keys):
            s, e = entries[q], entries[q + 1]
            levels.append(
                WaveLevel(
                    nodes=nodes[slots[q]:slots[q + 1]],
                    rows=rows[s:e],
                    start=s,
                    stop=e,
                    slot=slots[q],
                    **{name: array[s:e] for name, array in per_entry.items()},
                )
            )
        return Wave(
            nodes=nodes,
            g_tails=self.cell_g_tail[order],
            g_heads=self.cell_g_head[order],
            levels=tuple(levels),
            **per_entry,
        )

    # -- construction / caching ----------------------------------------------------
    @classmethod
    def of(cls, ext: ExtendedNetwork) -> "ModelState":
        """The (cached) array state of ``ext``; builds on first use."""
        if ext._model_state is None:
            ext._model_state = cls(ext)
        return ext._model_state

    # -- dense tables <-> the engine's vectors -------------------------------------
    def edge_table(self, values: np.ndarray) -> np.ndarray:
        """A ``(J, E)`` table of ``values`` (one per reverse entry) on the
        allowed cells, zero elsewhere."""
        table = np.zeros((self.num_commodities, self.num_edges), dtype=values.dtype)
        table.reshape(-1)[self.reverse.edges] = values
        return table

    def edge_cells(self, table: np.ndarray, wave: Wave) -> np.ndarray:
        """A ``(J, E)`` table's values per entry of ``wave``."""
        return table.reshape(-1)[wave.edges]

    def node_table(self, values: np.ndarray, wave: Wave) -> np.ndarray:
        """A ``(J, V)`` table of ``values`` (one per slot of ``wave``), zero
        at the nodes no cell touches."""
        table = np.zeros((self.num_commodities, self.num_nodes), dtype=float)
        table.reshape(-1)[wave.nodes] = values
        return table

    def node_slots(self, table: np.ndarray, wave: Wave) -> np.ndarray:
        """A ``(J, V)`` table's values per slot of ``wave``."""
        return table.reshape(-1)[wave.nodes]

    # -- the engine: one iteration on cell vectors -----------------------------------
    # ``phi`` below is a routing's cell vector (RoutingState.cells), one
    # fraction per reverse entry, and ``phi_f`` the same fractions per
    # forward entry; ``traffic`` is per forward slot, ``dadr`` per reverse
    # slot and ``delta`` per reverse entry.
    def forward_sweep(self, phi_f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. (3)'s forward wave, from ``phi`` per forward entry
        (:meth:`repro.core.routing.RoutingState.forward_cells`): returns
        ``(traffic, tp)``, ``tp`` being ``t_tail * phi`` per cell in
        cell-list order.

        The wave forms ``t * phi`` for every entry on its way, and usage
        reads it back: the ``(t * phi) * cost`` product of the scalar walk.
        """
        traffic = np.zeros(self.forward.nodes.size)
        # only the dummy sources receive external input, and they have no
        # in-edges; the commodity rates are read fresh, since a scalar patch
        # changes them in place
        traffic[self.dummy_slots] = self.ext.commodity_max_rates
        tp = np.empty(phi_f.size)
        for tail_slots, rows, gains, s, e, a, b in self._forward_loop:
            x = np.multiply(traffic[tail_slots], phi_f[s:e], tp[s:e])
            traffic[a:b] = np.bincount(rows, x * gains, b - a)
        return traffic, tp[self.cell_forward]

    def admitted(self, traffic: np.ndarray, phi_f: np.ndarray) -> np.ndarray:
        """Each commodity's admitted rate: its dummy's traffic times the
        fraction on its input edge (``phi_f`` per forward entry)."""
        return traffic[self.dummy_slots] * phi_f[self.input_entries]

    def usage_sweep(self, tp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eqs. (4)-(5) from ``t_tail * phi`` per cell, in cell-list order:
        ``O(P + E)``, not ``O(J * E)``.

        Usage is the one sum across commodities, so it always runs over the
        whole cell list: the worker pool calls it on the master once every
        shard's traffic rows have landed.
        """
        edge_usage = np.bincount(self.cell_raw, tp * self.cell_cost, self.num_edges)
        node_usage = np.bincount(self.edge_tail, edge_usage, self.num_nodes)
        return edge_usage, node_usage

    def resource_usage(
        self, phi_flat: np.ndarray, t_flat: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`usage_sweep` of flat ``(J, E)`` ``phi`` and ``(J, V)``
        ``t`` tables, gathered."""
        return self.usage_sweep(t_flat[self.cell_tails] * phi_flat[self.cell_edges])

    def reverse_sweep(
        self, phi: np.ndarray, dadf: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. (9)'s reverse wave; returns ``(dadr, delta)``.

        Each level writes its entries' eq. (15) bracket
        ``dadf * c + beta * dA/dr_head`` as it goes: a head's level is final
        before its tails', so this is the value a separate pass would
        compute.
        """
        dadr = np.zeros(self.reverse.nodes.size)
        cost = dadf[self.reverse.raw] * self.reverse.costs
        delta = np.empty(phi.size)
        for lv in self.reverse_levels:
            s, e = lv.start, lv.stop
            d = np.add(cost[s:e], lv.gains * dadr[lv.head_slots], delta[s:e])
            n = lv.nodes.size
            dadr[lv.slot:lv.slot + n] = np.bincount(lv.rows, phi[s:e] * d, n)
        return dadr, delta

    def blocked_sweep(
        self,
        phi: np.ndarray,
        traffic: np.ndarray,
        dadr: np.ndarray,
        delta: np.ndarray,
        eta: float,
        phi_zero_tol: float = 1e-12,
        phi_positive_tol: float = 1e-12,
    ) -> Optional[np.ndarray]:
        """Eq. (18): blocked reverse entries, or ``None`` when none is.

        The same comparisons as :func:`repro.core.blocking.
        compute_blocked_sets_scalar`, over every cell at once.  The tag
        flood runs the reverse levels from the one holding the first
        improper entry: below it every tag is ``False``.  A node's
        out-edges share one reverse level, so each level writes its nodes'
        tags once, as the OR of their out-edges.
        """
        rv = self.reverse
        t_tail = traffic[self.reverse_traffic_slots]
        dadr_tail = dadr[rv.tail_slots]
        carries = phi > phi_positive_tol
        uphill = rv.g_tails * dadr_tail <= rv.g_heads * dadr[rv.head_slots]
        movable = t_tail > 0.0
        threshold = (eta / np.where(movable, t_tail, 1.0)) * (delta - dadr_tail)
        improper = carries & uphill & movable & (phi >= threshold)
        if not improper.any():
            return None

        first = bisect_right(self._reverse_starts, int(improper.argmax())) - 1
        tags = np.zeros(rv.nodes.size, dtype=bool)
        for lv in self.reverse_levels[first:]:
            s, e = lv.start, lv.stop
            contrib = improper[s:e] | (carries[s:e] & tags[lv.head_slots])
            n = lv.nodes.size
            tags[lv.slot:lv.slot + n] = np.bincount(lv.rows, contrib, n) > 0
        blocked = (phi <= phi_zero_tol) & tags[rv.head_slots]
        return blocked if blocked.any() else None

    def edge_marginals_dense(
        self, dadf: np.ndarray, dadr_flat: np.ndarray
    ) -> np.ndarray:
        """Eq. (15)'s bracket as a sparse-filled ``(J, E)`` table.

        Allowed cells carry the exact dense expression; off-graph cells are
        0.0 (the dense :func:`repro.core.marginals.all_edge_marginals`
        table leaves ``dadr[head]`` there, but every consumer of the
        iteration context's ``delta`` masks to allowed cells, so the
        difference is unobservable).  The engine writes the same products
        inside :meth:`reverse_sweep`.
        """
        delta = np.zeros((self.num_commodities, self.num_edges), dtype=float)
        delta.reshape(-1)[self.cell_edges] = (
            dadf[self.cell_raw] * self.cell_cost
            + self.cell_gain * dadr_flat[self.cell_heads]
        )
        return delta

    # -- row-block kernels (the worker pool's shards) -----------------------------------
    def block(self, lo: int, hi: int) -> BlockPlans:
        """The cached restriction of every level and of the Gamma rows to
        commodities ``[lo, hi)``."""
        key = (lo, hi)
        plans = self._blocks.get(key)
        if plans is not None:
            return plans

        c0, c1 = int(self.cell_starts[lo]), int(self.cell_starts[hi])

        bounds = [lo, hi]

        def slice_levels(levels: Tuple[WaveLevel, ...]) -> Tuple[tuple, ...]:
            out = []
            for lv in levels:
                # entries and nodes are grouped by commodity within a level
                s, e = np.searchsorted(lv.edges // self.num_edges, bounds).tolist()
                if s == e:
                    continue
                r0, r1 = np.searchsorted(lv.nodes // self.num_nodes, bounds).tolist()
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
        gamma_plan: Optional[GammaPlan] = None
        if g1 > g0:
            full = self.gamma_plan
            t0, t1 = np.searchsorted(full.cell_rows, [g0, g1])
            gamma_plan = GammaPlan(
                nodes=full.nodes[g0:g1],
                targets=full.targets[t0:t1],
                cell_rows=full.cell_rows[t0:t1] - g0,
                row_starts=full.row_starts[g0:g1] - t0,
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
