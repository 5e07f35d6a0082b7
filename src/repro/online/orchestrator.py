"""Online orchestration: run the algorithm through a timeline of events.

:class:`OnlineOrchestrator` interleaves gradient iterations with network
events (failures, demand surges, capacity changes, commodity churn).  At
each event it

1. advances the model one *epoch* through the delta compiler
   (:func:`repro.core.delta.compile_event` / ``apply_delta``): scalar
   events patch the extended network in place, structural events splice a
   successor re-deriving only the commodities the event touched,
2. carries the routing state across at the array level
   (:func:`repro.core.delta.carry_routing`) -- a *warm start*, exercising
   the paper's claim that reserved headroom speeds up recovery,
3. optionally applies :func:`emergency_shed` so hard capacities hold
   immediately, and
4. refreshes the execution backend (``algo.refresh``), then keeps
   iterating, recording the utility trajectory and, per event, how many
   iterations the algorithm needs to re-enter 95% of the *new* optimum.

The orchestrator steps one iteration at a time (events land between
iterations), so it runs the serial engine; the batched-staleness worker
pool, which only runs multi-iteration ``advance`` batches, has nothing to
do here.

``incremental=False`` selects the legacy full-rebuild path
(:func:`repro.online.rebuild.apply_event` + a from-scratch
:func:`build_extended_network` + a fresh algorithm binding); it is kept as
the oracle reference the delta path is validated against
(``repro.validate.DifferentialOracle.compare_rebuild``) and produces
bit-identical trajectories.

A cold-start comparison (fresh shed-everything routing after each event) is
available via ``warm_start=False``; the recovery benchmark contrasts the
two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.convergence import iterations_to_fraction
from repro.core.commodity import StreamNetwork
from repro.core.delta import apply_delta, carry_routing, compile_event
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.marginals import evaluate_cost
from repro.core.optimal import solve_optimal
from repro.core.routing import feasibility_report, initial_routing
from repro.core.solution import Solution, build_solution
from repro.core.transform import build_extended_network
from repro.exceptions import ModelError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.online.events import NetworkEvent
from repro.online.rebuild import apply_event, emergency_shed, remap_routing

__all__ = ["OnlineRecord", "RecoveryReport", "OnlineResult", "OnlineOrchestrator"]


@dataclass
class OnlineRecord:
    """One sampled point of the online trajectory (global iteration time)."""

    iteration: int
    utility: float
    max_utilization: float
    event: Optional[str] = None
    cost: float = float("nan")  # penalised objective A at the sample


@dataclass
class RecoveryReport:
    """Recovery metrics for one event."""

    event: NetworkEvent
    at_iteration: int
    pre_event_utility: float
    post_event_utility: float  # immediately after remap (+ shedding)
    new_optimal_utility: float
    iterations_to_95: Optional[int]  # iterations after the event
    dropped_commodities: List[str] = field(default_factory=list)
    # model epoch after the event (0 on the legacy full-rebuild path, which
    # rebuilds from scratch and therefore restarts the version counter)
    epoch: int = 0

    @property
    def utility_dip(self) -> float:
        return self.pre_event_utility - self.post_event_utility


@dataclass
class OnlineResult:
    """Outcome of an online run; implements the ``RunResult`` protocol.

    ``history`` is the canonical trajectory accessor (``records`` remains as
    the founding field name).  The protocol is implemented directly rather
    than via :class:`~repro.core.result.RunResultMixin` because
    ``final_utility`` is a dataclass *field* here (the last evaluated
    utility), which would collide with the mixin's read-only property.
    """

    records: List[OnlineRecord]
    recoveries: List[RecoveryReport]
    final_utility: float
    solution: Optional[Solution] = None

    @property
    def history(self) -> List[OnlineRecord]:
        return self.records

    @property
    def utilities(self) -> np.ndarray:
        return np.array([r.utility for r in self.records])

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    @property
    def recorded_iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records])

    @property
    def iterations(self) -> np.ndarray:
        """Deprecated alias of :attr:`recorded_iterations`.

        Every other result type's ``iterations`` is the *count* of
        iterations executed; this one returned the recorded iteration
        numbers.  The protocol spelling removes the ambiguity.
        """
        warnings.warn(
            "OnlineResult.iterations is deprecated; use recorded_iterations",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.recorded_iterations


class OnlineOrchestrator:
    """Drive the gradient algorithm through a timeline of network events."""

    def __init__(
        self,
        network: StreamNetwork,
        events: Sequence[NetworkEvent],
        config: Optional[GradientConfig] = None,
        warm_start: bool = True,
        shed_on_event: bool = True,
        record_every: int = 10,
        incremental: bool = True,
        backend=None,
        options=None,
    ) -> None:
        self.initial_network = network
        self.events = sorted(events, key=lambda e: e.at_iteration)
        for a, b in zip(self.events, self.events[1:]):
            if a.at_iteration == b.at_iteration:
                raise ModelError("one event per iteration, please")
        if options is not None:
            # the unified SolveOptions spelling (repro.options): carries
            # config/backend; the bare kwargs are its deprecated aliases and
            # may not be combined with it
            from repro.options import SolveOptions

            if not isinstance(options, SolveOptions):
                raise ModelError(
                    f"options= takes a SolveOptions, got {type(options).__name__}"
                )
            if config is not None or backend is not None:
                raise ModelError(
                    "pass either options= or the config=/backend= aliases, "
                    "not both"
                )
            if options.method != "gradient":
                raise ModelError(
                    "the online orchestrator drives the gradient method; "
                    f"got options.method={options.method!r}"
                )
            if options.workers is not None or options.staleness is not None:
                raise ModelError(
                    "the online orchestrator steps one iteration at a time, "
                    "so a worker pool would never run; drop workers=/staleness="
                )
            config = options.config
            backend = options.backend
        self.config = config or GradientConfig()
        self.warm_start = warm_start
        self.shed_on_event = shed_on_event
        self.record_every = record_every
        self.incremental = incremental
        # a caller-supplied backend instance is borrowed (the caller closes
        # it); the default serial one is owned
        self._backend = backend
        self._epoch = 0

    @classmethod
    def from_scenario(
        cls, spec, seed: Optional[int] = None, **kwargs
    ) -> "OnlineOrchestrator":
        """Build an orchestrator from a :class:`~repro.scenarios.ScenarioSpec`.

        ``spec`` is a spec instance or a catalog name
        (``"serve-diurnal-30"``); ``seed`` overrides the spec's pinned
        seed.  The spec's compiled ``(network, events)`` pair feeds the
        constructor; every other keyword argument is forwarded.
        """
        # lazy import: repro.scenarios uses the online event/rebuild layer
        # for shadow validation, so a module-scope import would be circular
        from repro.scenarios import ScenarioSpec, scenario

        if isinstance(spec, str):
            spec = scenario(spec, seed=seed)
        elif isinstance(spec, ScenarioSpec):
            if seed is not None:
                spec = spec.with_seed(seed)
        else:
            raise ModelError(
                f"from_scenario takes a ScenarioSpec or a catalog name, "
                f"got {type(spec).__name__}"
            )
        compiled = spec.compile()
        return cls(compiled.network, compiled.events, **kwargs)

    def current_epoch(self) -> int:
        """The model epoch after the most recently applied event.

        ``0`` before :meth:`run` starts and on the legacy full-rebuild path
        (``incremental=False``), which rebuilds from scratch and restarts
        the version counter.
        """
        return self._epoch

    def run(self, total_iterations: int, instrumentation=None) -> OnlineResult:
        """Run the timeline; ``instrumentation`` logs network events,
        re-optimisation phases, and the sampled trajectory (read-only)."""
        if total_iterations < 1:
            raise ModelError("total_iterations must be >= 1")
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        from repro.parallel.backend import resolve_backend

        ext = build_extended_network(self.initial_network)
        self._epoch = int(ext.epoch)
        backend = resolve_backend(self._backend)
        owns_backend = backend is not self._backend
        try:
            return self._run(total_iterations, inst, instrumentation, backend, ext)
        finally:
            if owns_backend:
                backend.close()

    def _run(
        self, total_iterations: int, inst, instrumentation, backend, ext
    ) -> OnlineResult:
        network = self.initial_network
        algo = GradientAlgorithm(ext, self.config, backend=backend)
        routing = initial_routing(ext)

        records: List[OnlineRecord] = []
        recoveries: List[RecoveryReport] = []
        pending = list(self.events)

        def snapshot(iteration: int, event_label: Optional[str] = None) -> float:
            breakdown = evaluate_cost(ext, routing, self.config.cost_model)
            report = feasibility_report(ext, routing)
            records.append(
                OnlineRecord(
                    iteration=iteration,
                    utility=breakdown.utility,
                    max_utilization=report.max_utilization,
                    event=event_label,
                    cost=float(breakdown.total),
                )
            )
            if inst.enabled:
                inst.iteration(
                    iteration,
                    cost=float(breakdown.total),
                    utility=breakdown.utility,
                    max_utilization=report.max_utilization,
                    **({"event": event_label} if event_label else {}),
                )
            return breakdown.utility

        snapshot(0)
        eta = self.config.eta
        eta_floor = eta * self.config.eta_min_factor
        eta_ceiling = eta * self.config.eta_max_factor
        previous_cost = evaluate_cost(ext, routing, self.config.cost_model).total

        for iteration in range(1, total_iterations + 1):
            while pending and pending[0].at_iteration == iteration:
                event = pending.pop(0)
                pre_utility = evaluate_cost(
                    ext, routing, self.config.cost_model
                ).utility

                if inst.enabled:
                    inst.event(
                        "network_event",
                        event=type(event).__name__,
                        iteration=iteration,
                        detail=str(event),
                    )
                event_name = type(event).__name__
                with inst.phase("rebuild", event=event_name):
                    old_ext = ext
                    if self.incremental:
                        with inst.phase("rebuild.delta.compile", event=event_name):
                            delta = compile_event(ext, event)
                        with inst.phase("rebuild.delta.apply", event=event_name):
                            applied = apply_delta(ext, delta)
                        ext = applied.ext
                        self._epoch = int(ext.epoch)
                        network = ext.stream_network
                        dropped = list(delta.dropped_commodities)
                        if self.warm_start:
                            routing = carry_routing(
                                old_ext, routing, ext, applied.maps
                            )
                            if self.shed_on_event:
                                routing = emergency_shed(ext, routing)
                        else:
                            routing = initial_routing(ext)
                        algo.refresh(applied)
                        inst.count("rebuild.delta.applied")
                        inst.count(f"rebuild.delta.{event_name}")
                        inst.count(
                            "rebuild.delta.structural"
                            if applied.structural
                            else "rebuild.delta.scalar"
                        )
                        inst.gauge("rebuild.epoch", float(ext.epoch))
                    else:
                        rebuilt = apply_event(network, event)
                        network = rebuilt.network
                        ext = build_extended_network(
                            network, require_connected=False
                        )
                        dropped = rebuilt.dropped_commodities
                        self._epoch = int(ext.epoch)
                        if self.warm_start:
                            routing = remap_routing(old_ext, routing, ext)
                            if self.shed_on_event:
                                routing = emergency_shed(ext, routing)
                        else:
                            routing = initial_routing(ext)
                        algo = GradientAlgorithm(
                            ext, self.config, backend=backend
                        )

                with inst.phase("reference_optimum"):
                    new_optimum = solve_optimal(ext).utility
                post_utility = snapshot(
                    iteration, event_label=event_name
                )
                recoveries.append(
                    RecoveryReport(
                        event=event,
                        at_iteration=iteration,
                        pre_event_utility=pre_utility,
                        post_event_utility=post_utility,
                        new_optimal_utility=new_optimum,
                        iterations_to_95=None,  # filled below
                        dropped_commodities=dropped,
                        epoch=ext.epoch,
                    )
                )
                # fresh landscape: restart the step-scale adaptation
                eta = self.config.eta
                previous_cost = evaluate_cost(
                    ext, routing, self.config.cost_model
                ).total

            with inst.phase("iteration", iteration=iteration):
                routing = algo.step(routing, eta=eta, instrumentation=instrumentation)
            if self.config.adaptive_eta:
                cost = evaluate_cost(ext, routing, self.config.cost_model).total
                if cost > previous_cost * (1.0 + 1e-12):
                    eta = max(eta * self.config.eta_backoff, eta_floor)
                else:
                    eta = min(eta * self.config.eta_growth, eta_ceiling)
                previous_cost = cost
            if iteration % self.record_every == 0 or iteration == total_iterations:
                snapshot(iteration)

        final_utility = evaluate_cost(ext, routing, self.config.cost_model).utility
        solution = build_solution(
            ext,
            routing,
            self.config.cost_model,
            method="gradient-online",
            iterations=total_iterations,
        )

        # recovery times: first recorded iteration (after the event) whose
        # utility reaches 95% of the new optimum
        for report in recoveries:
            later = [
                (r.iteration, r.utility)
                for r in records
                if r.iteration >= report.at_iteration
            ]
            iters = [i for i, __ in later]
            utils = [u for __, u in later]
            if report.new_optimal_utility > 0:
                hit = iterations_to_fraction(
                    iters, utils, report.new_optimal_utility, 0.95
                )
                report.iterations_to_95 = (
                    hit - report.at_iteration if hit is not None else None
                )

        if inst.enabled:
            inst.gauge("final_utility", final_utility)
            inst.gauge("events_applied", len(recoveries))
            for report in recoveries:
                inst.event(
                    "recovery",
                    event=type(report.event).__name__,
                    at_iteration=report.at_iteration,
                    utility_dip=report.utility_dip,
                    iterations_to_95=report.iterations_to_95,
                )
        return OnlineResult(
            records=records,
            recoveries=recoveries,
            final_utility=final_utility,
            solution=solution,
        )
