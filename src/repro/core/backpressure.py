"""Back-pressure baseline algorithm (paper Section 6; Broberg et al. [6]).

The paper compares its gradient algorithm against the back-pressure scheme of
the authors' earlier SIGMETRICS'06 work [6]: *"Each node maintains local
input and output buffers for each commodity [and] a potential function.  The
algorithm is iterative and, at each iteration, a node only needs to know the
buffer levels at its neighboring nodes.  It then uses this information to
determine the appropriate resource allocation that reduces the potential at
that node by the greatest amount."*  The paper also notes [6] "handles linear
utility functions" -- the baseline targets throughput-style objectives.

The full text of [6] is not available, so this module implements the
canonical member of that family (Awerbuch-Leighton-style local potential
reduction) adapted to flows with gains; the substitution is recorded in
DESIGN.md:

* every capacity node keeps a buffer ``q_i(j)`` per commodity (node-local
  units, i.e. post-gain); the system potential is the quadratic
  ``Phi = sum q_i(j)^2``;
* **admission**: each slot the source buffer accepts
  ``min(lambda_j, buffer_cap - q)`` -- excess input overflows and is shed,
  which is precisely the admission-control mechanism of bounded-buffer
  multicommodity-flow algorithms;
* **allocation**: each node chooses the out-edge flows that maximise its own
  potential decrease.  Moving ``x`` (tail units) of commodity ``j`` over edge
  ``e`` changes the potential by ``-2 w_j (q_i - beta_e q_head) x +
  w_j (1 + beta_e^2) x^2`` (sinks absorb: ``q_head = 0``), so the
  unconstrained per-edge optimum is the *balancing* move
  ``x* = max(0, (q_i - beta_e q_head) / (1 + beta_e^2))``; moves are then
  scaled back proportionally to respect the commodity buffer content and the
  node's resource budget ``sum_e c_e x_e <= C_i``;
* each iteration exchanges only neighbour buffer levels: O(1) message rounds,
  versus the gradient algorithm's O(longest path) wave.

Because every step only *equilibrates* neighbouring buffers (a diffusion),
useful end-to-end gradients build up slowly and the delivered-rate time
average converges orders of magnitude slower than the gradient algorithm --
the behaviour Figure 4 reports (~100,000 iterations to reach 95% of optimal
versus ~1,000).

Throughput is measured the way Figure 4 plots it: the utility of the
*time-averaged* delivered rates.  The hot loop is fully vectorised (flat
pair arrays + scatter updates) so 100k+ iterations finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.result import RunResultMixin
from repro.core.solution import Solution
from repro.core.transform import ExtendedNetwork, ExtEdgeKind
from repro.exceptions import SimulationError
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = [
    "BackpressureConfig",
    "BackpressureRecord",
    "BackpressureResult",
    "BackpressureAlgorithm",
]


@dataclass
class BackpressureConfig:
    """Parameters of the back-pressure baseline.

    ``buffer_cap`` bounds every buffer; input that finds a full source buffer
    is shed.  Larger caps let the algorithm get closer to the optimum but
    deepen the diffusive transient (the classic accuracy/speed trade of
    bounded-buffer flow algorithms).
    """

    buffer_cap: float = 200.0
    slot_length: float = 1.0
    max_iterations: int = 100000
    record_every: int = 100

    def __post_init__(self) -> None:
        if self.buffer_cap <= 0:
            raise ValueError("buffer_cap must be > 0")
        if self.slot_length <= 0:
            raise ValueError("slot_length must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class BackpressureRecord:
    iteration: int
    utility: float  # utility of time-averaged delivered rates
    average_rates: np.ndarray
    total_queue: float


@dataclass
class BackpressureResult(RunResultMixin):
    """Outcome of a back-pressure run; implements the ``RunResult`` protocol.

    ``costs`` is all-NaN: the baseline optimises a queue potential, not the
    penalised objective ``A``, so no per-record cost is defined.
    """

    history: List[BackpressureRecord]
    average_rates: np.ndarray  # final time-averaged delivered rate per commodity
    utility: float
    iterations: int
    messages_per_iteration: int
    solution: Optional[Solution] = None

    @property
    def final_utility(self) -> float:
        return float(self.utility)


class BackpressureAlgorithm:
    """Vectorised synchronous potential-balancing back-pressure baseline."""

    def __init__(
        self, ext: ExtendedNetwork, config: Optional[BackpressureConfig] = None
    ):
        self.ext = ext
        self.config = config or BackpressureConfig()
        self._build_static_structures()

    # -- static precomputation ---------------------------------------------------
    def _build_static_structures(self) -> None:
        ext = self.ext
        pair_j: List[int] = []
        pair_edge: List[int] = []
        for view in ext.commodities:
            for e in view.edge_indices:
                kind = ext.edges[e].kind
                if kind in (ExtEdgeKind.PROCESSING, ExtEdgeKind.TRANSFER):
                    pair_j.append(view.index)
                    pair_edge.append(e)
        if not pair_j:
            raise SimulationError("no schedulable edges for back-pressure")

        self.pair_j = np.array(pair_j, dtype=int)
        self.pair_edge = np.array(pair_edge, dtype=int)
        self.pair_tail = ext.edge_tail[self.pair_edge]
        self.pair_head = ext.edge_head[self.pair_edge]
        self.pair_cost = ext.cost[self.pair_j, self.pair_edge]
        self.pair_gain = ext.gain[self.pair_j, self.pair_edge]
        sink_set = {view.sink for view in ext.commodities}
        self.pair_head_is_sink = np.array(
            [h in sink_set for h in self.pair_head], dtype=bool
        )

        # cumulative gain from the source to each pair's tail (source units ->
        # tail units); well defined by Property 1.  Used to convert delivered
        # tail-unit flow back to source units.
        potentials = self._node_potentials()
        self.pair_tail_potential = potentials[self.pair_j, self.pair_tail]

        self.source_nodes = np.array([v.source for v in ext.commodities], dtype=int)
        self.lam = ext.commodity_max_rates.copy()

        # neighbour pairs whose buffer levels are exchanged each iteration
        neighbour_pairs = {
            (int(t), int(h)) for t, h in zip(self.pair_tail, self.pair_head)
        }
        self.messages_per_iteration = 2 * len(neighbour_pairs)

    def _node_potentials(self) -> np.ndarray:
        """``g_i(j)``: cumulative gain from dummy source to node ``i`` (a
        consequence of Property 1), computed along each commodity DAG."""
        ext = self.ext
        g = np.ones((ext.num_commodities, ext.num_nodes), dtype=float)
        for view in ext.commodities:
            j = view.index
            seen = {view.dummy}
            for node in view.topo_order:
                for e in ext.commodity_out_edges[j][node]:
                    if e == view.difference_edge:
                        # the shed shortcut is priced in lambda-units by Y and
                        # is exempt from Property 1; skip it here
                        continue
                    head = ext.edge_head[e]
                    value = g[j, node] * ext.gain[j, e]
                    if head in seen:
                        if not np.isclose(g[j, head], value, rtol=1e-8):
                            raise SimulationError(
                                f"Property 1 violated for commodity {view.name!r}"
                            )
                    else:
                        g[j, head] = value
                        seen.add(head)
        return g

    # -- main loop -----------------------------------------------------------------
    def run(self, instrumentation=None, validate=False) -> BackpressureResult:
        """Run the baseline; ``instrumentation`` records the sampled
        trajectory, message totals, and whole-run timing (read-only).
        ``validate`` (``True`` or ``"strict"``) audits the result afterward
        (flow checks are skipped: the baseline keeps no routing state)."""
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        with inst.phase("backpressure_run"):
            result = self._run(inst)
        if validate:
            from repro.validate import attach_validation

            attach_validation(result, self.ext, mode=validate, instrumentation=inst)
        return result

    def _run(self, inst) -> BackpressureResult:
        ext = self.ext
        cfg = self.config
        num_j = ext.num_commodities
        dt = cfg.slot_length

        queues = np.zeros((num_j, ext.num_nodes), dtype=float)
        delivered = np.zeros(num_j, dtype=float)  # cumulative, source units
        history: List[BackpressureRecord] = []
        utilities = [v.utility for v in ext.commodities]
        average_rates = np.zeros(num_j, dtype=float)
        j_range = np.arange(num_j)

        head_q = np.empty(len(self.pair_j), dtype=float)
        one_plus_gain_sq = 1.0 + self.pair_gain**2
        node_capacity = ext.capacity  # inf for dummies/sinks (never tails here)

        for slot in range(1, cfg.max_iterations + 1):
            # 1. admission: source buffers accept input up to the cap
            room = cfg.buffer_cap - queues[j_range, self.source_nodes]
            queues[j_range, self.source_nodes] += np.minimum(self.lam * dt, room)

            # 2. potential-balancing allocation
            tail_q = queues[self.pair_j, self.pair_tail]
            np.copyto(head_q, queues[self.pair_j, self.pair_head])
            head_q[self.pair_head_is_sink] = 0.0
            desired = np.maximum(
                0.0, (tail_q - self.pair_gain * head_q) / one_plus_gain_sq
            )

            # scale to the available buffer content per (commodity, tail)
            outflow = np.zeros((num_j, ext.num_nodes), dtype=float)
            np.add.at(outflow, (self.pair_j, self.pair_tail), desired)
            with np.errstate(divide="ignore", invalid="ignore"):
                buffer_scale = np.where(
                    outflow > 0.0, np.minimum(1.0, queues / np.maximum(outflow, 1e-300)), 1.0
                )
            flow = desired * buffer_scale[self.pair_j, self.pair_tail]

            # enforce the node resource budget.  At oversubscribed nodes the
            # potential-greedy allocation is a water-filling: the node prices
            # its resource at mu >= 0 and every move shrinks by
            # mu * c_e / (2 * (1 + beta_e^2)) (the KKT condition of the
            # node-local quadratic), clipped at zero -- this is "the
            # allocation that reduces the potential by the greatest amount"
            # under the budget.  mu is found by vectorised bisection, one
            # multiplier per node, all nodes at once.
            usage = np.zeros(ext.num_nodes, dtype=float)
            np.add.at(usage, self.pair_tail, flow * self.pair_cost)
            over = usage > node_capacity * dt
            if np.any(over):
                pair_over = over[self.pair_tail]
                idx = np.nonzero(pair_over)[0]
                tails = self.pair_tail[idx]
                base = flow[idx]
                slope = self.pair_cost[idx] / (2.0 * one_plus_gain_sq[idx])
                budget = node_capacity * dt
                lo = np.zeros(ext.num_nodes, dtype=float)
                hi = np.zeros(ext.num_nodes, dtype=float)
                np.maximum.at(hi, tails, 2.0 * base / np.maximum(slope, 1e-300))
                for _ in range(25):
                    mu = 0.5 * (lo + hi)
                    trial = np.maximum(0.0, base - mu[tails] * slope)
                    used = np.zeros(ext.num_nodes, dtype=float)
                    np.add.at(used, tails, trial * self.pair_cost[idx])
                    too_high = used > budget
                    lo = np.where(too_high & over, mu, lo)
                    hi = np.where(too_high | ~over, hi, mu)
                flow[idx] = np.maximum(0.0, base - hi[tails] * slope)

            # 3. apply moves
            np.add.at(queues, (self.pair_j, self.pair_tail), -flow)
            into_net = ~self.pair_head_is_sink
            np.add.at(
                queues,
                (self.pair_j[into_net], self.pair_head[into_net]),
                self.pair_gain[into_net] * flow[into_net],
            )
            at_sink = self.pair_head_is_sink
            np.add.at(
                delivered,
                self.pair_j[at_sink],
                flow[at_sink] / self.pair_tail_potential[at_sink],
            )
            np.maximum(queues, 0.0, out=queues)  # absorb roundoff

            # 4. bookkeeping
            if slot % cfg.record_every == 0 or slot == cfg.max_iterations:
                average_rates = np.minimum(delivered / (slot * dt), self.lam)
                utility = float(
                    sum(u.value(a) for u, a in zip(utilities, average_rates))
                )
                record = BackpressureRecord(
                    iteration=slot,
                    utility=utility,
                    average_rates=average_rates.copy(),
                    total_queue=float(queues.sum()),
                )
                history.append(record)
                if inst.enabled:
                    inst.iteration(
                        slot, utility=utility, total_queue=record.total_queue
                    )

        average_rates = np.minimum(delivered / (cfg.max_iterations * dt), self.lam)
        final_utility = float(
            sum(u.value(a) for u, a in zip(utilities, average_rates))
        )
        solution = Solution(
            ext=ext,
            admitted=average_rates,
            utility=final_utility,
            cost=float("nan"),
            method="backpressure",
            routing=None,
            iterations=cfg.max_iterations,
        )
        if inst.enabled:
            # one buffer-level exchange per neighbour pair per slot: O(1)
            # rounds, so the totals are exact products, not per-slot counts
            inst.messages(
                "buffer_exchange",
                messages=self.messages_per_iteration * cfg.max_iterations,
                bytes=24 * self.messages_per_iteration * cfg.max_iterations,
                rounds=1,
            )
            inst.gauge("iterations_total", cfg.max_iterations)
            inst.gauge("final_utility", final_utility)
        return BackpressureResult(
            history=history,
            average_rates=average_rates,
            utility=final_utility,
            iterations=cfg.max_iterations,
            messages_per_iteration=self.messages_per_iteration,
            solution=solution,
        )
