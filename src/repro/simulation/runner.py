"""Distributed execution of the gradient algorithm over the event engine.

:class:`DistributedGradientRun` instantiates one :class:`NodeAgent` per
extended-graph node and drives the three protocol phases of each iteration
through the deterministic message-passing engine.  It produces the same
iterates as :class:`repro.core.gradient.GradientAlgorithm` (the integration
tests assert bit-identical routing states) while additionally measuring what
only a real message-passing execution can: messages, bytes, and *sequential
rounds* per iteration -- the quantities behind the paper's O(L) vs O(1)
complexity discussion in Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.context import IterationContext
from repro.core.gradient import GradientConfig, IterationRecord
from repro.core.result import RunResultMixin
from repro.core.routing import RoutingState, initial_routing, utilization_profile
from repro.core.solution import Solution, build_solution
from repro.core.transform import ExtendedNetwork
from repro.exceptions import SimulationError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.simulation.agent import NodeAgent
from repro.simulation.engine import EventEngine
from repro.simulation.metrics import IterationMetrics, PhaseMetrics

__all__ = ["DistributedRunResult", "DistributedGradientRun"]


@dataclass
class DistributedRunResult(RunResultMixin):
    """Outcome of a distributed run: solution, trajectory, protocol metrics.

    Implements the :class:`~repro.core.result.RunResult` protocol with the
    same ``history`` record type as
    :class:`repro.core.gradient.GradientResult`, so analysis code consumes
    either result interchangeably; ``metrics`` adds what only a real
    message-passing execution measures (messages, bytes, rounds).
    """

    solution: Solution
    iterations: int
    history: List[IterationRecord]
    metrics: List[IterationMetrics] = field(default_factory=list)

    @property
    def average_rounds_per_iteration(self) -> float:
        if not self.metrics:
            return 0.0
        return float(np.mean([m.rounds for m in self.metrics]))

    @property
    def average_messages_per_iteration(self) -> float:
        if not self.metrics:
            return 0.0
        return float(np.mean([m.messages for m in self.metrics]))


class DistributedGradientRun:
    """Run the paper's algorithm as an actual message-passing protocol."""

    def __init__(
        self,
        ext: ExtendedNetwork,
        config: Optional[GradientConfig] = None,
        hop_latency: int = 1,
        instrumentation=None,
        backend=None,
    ):
        self.ext = ext
        self.config = config or GradientConfig()
        self.inst = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        # the protocol itself runs in the agents; the backend only evaluates
        # the per-record cost snapshots
        if backend is None:
            from repro.parallel.backend import SerialBackend

            backend = SerialBackend()
        self.backend = backend
        backend.bind(self.ext, self.config)
        self.engine = EventEngine(hop_latency=hop_latency)
        self.agents: List[NodeAgent] = []
        for node in range(ext.num_nodes):
            agent = NodeAgent(
                ext,
                node,
                cost_model=self.config.cost_model,
                eta=self.config.eta,
                traffic_tol=self.config.traffic_tol,
                use_blocking=self.config.use_blocking,
            )
            self.engine.register(node, agent)
            self.agents.append(agent)

    # -- state import/export -----------------------------------------------------------
    def load_routing(self, routing: RoutingState) -> None:
        for agent in self.agents:
            agent.load_routing(routing.phi)

    def export_routing(self) -> RoutingState:
        phi = np.zeros((self.ext.num_commodities, self.ext.num_edges), dtype=float)
        for agent in self.agents:
            agent.export_routing(phi)
        return RoutingState(phi)

    # -- protocol phases -----------------------------------------------------------------
    def _run_phase(self, name: str, begin) -> PhaseMetrics:
        before_msgs = self.engine.metrics.messages_total
        before_bytes = self.engine.metrics.bytes_total
        self.engine.reset_clock()
        with self.inst.phase(name):
            for agent in self.agents:
                begin(agent)
            rounds = self.engine.run_until_idle()
        metrics = PhaseMetrics(
            name=name,
            messages=self.engine.metrics.messages_total - before_msgs,
            bytes=self.engine.metrics.bytes_total - before_bytes,
            rounds=rounds,
        )
        if self.inst.enabled:
            self.inst.messages(
                name, messages=metrics.messages, bytes=metrics.bytes, rounds=rounds
            )
        return metrics

    def forecast_phase(self) -> PhaseMetrics:
        return self._run_phase(
            "forecast", lambda agent: agent.begin_forecast_phase(self.engine)
        )

    def marginal_phase(self) -> PhaseMetrics:
        return self._run_phase(
            "marginal", lambda agent: agent.begin_marginal_phase(self.engine)
        )

    def update_phase(self) -> PhaseMetrics:
        with self.inst.phase("update"):
            for agent in self.agents:
                agent.apply_routing_update(instrumentation=self.inst)
        return PhaseMetrics(name="update", messages=0, bytes=0, rounds=0)

    def iterate(self, iteration: int) -> IterationMetrics:
        """One full iteration: marginal wave, local update, forecast wave."""
        metrics = IterationMetrics(iteration=iteration)
        metrics.phases.append(self.marginal_phase())
        metrics.phases.append(self.update_phase())
        metrics.phases.append(self.forecast_phase())
        return metrics

    # -- full run ------------------------------------------------------------------------
    def run(
        self,
        iterations: int,
        routing: Optional[RoutingState] = None,
        record_every: int = 1,
        validate=False,
    ) -> DistributedRunResult:
        """Execute ``iterations`` distributed iterations from a feasible start.

        An initial forecast phase seeds every node's ``t_i(j)`` and ``f_i``
        before the first marginal-cost wave, mirroring the synchronous
        engine's use of the current flow state.  ``validate`` (``True`` or
        ``"strict"``) audits the finished result against the invariant
        catalog.
        """
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        if routing is None:
            routing = initial_routing(self.ext)
        self.load_routing(routing)
        self.forecast_phase()  # seed t and f

        inst = self.inst
        history: List[IterationRecord] = []
        all_metrics: List[IterationMetrics] = []
        context: Optional[IterationContext] = None
        for iteration in range(1, iterations + 1):
            with inst.phase("iteration", iteration=iteration):
                all_metrics.append(self.iterate(iteration))
            if iteration % record_every == 0 or iteration == iterations:
                snapshot = self.export_routing()
                # one flow solve per record; no derivatives needed here
                context = self.backend.build_context(
                    snapshot, instrumentation=inst, with_derivatives=False
                )
                record = self._record(iteration, context)
                history.append(record)
                if inst.enabled:
                    inst.iteration(
                        iteration,
                        cost=record.cost,
                        utility=record.utility,
                        max_utilization=record.max_utilization,
                    )

        # the loop always records iteration == iterations, so the last
        # context describes the final routing state; reuse its flow solve
        solution = build_solution(
            self.ext,
            context.routing,
            self.config.cost_model,
            method="gradient-distributed",
            iterations=iterations,
            traffic=context.traffic,
        )
        if inst.enabled:
            inst.gauge("iterations_total", iterations)
            inst.gauge("final_utility", solution.utility)
            inst.gauge(
                "rounds_per_iteration",
                float(np.mean([m.rounds for m in all_metrics])),
            )
        result = DistributedRunResult(
            solution=solution,
            iterations=iterations,
            history=history,
            metrics=all_metrics,
        )
        if validate:
            from repro.validate import attach_validation

            attach_validation(result, self.ext, mode=validate, instrumentation=inst)
        return result

    def _record(self, iteration: int, context: IterationContext) -> IterationRecord:
        breakdown = context.breakdown
        util = utilization_profile(context.node_usage, self.ext.capacity)
        return IterationRecord(
            iteration=iteration,
            cost=breakdown.total,
            utility=breakdown.utility,
            max_utilization=float(util.max()) if util.size else 0.0,
            admitted=breakdown.admitted.copy(),
        )
