"""The live model a serve daemon owns: epochs in, snapshots out.

:class:`ServeSession` wraps the delta core (:mod:`repro.core.delta`), an
execution backend (:mod:`repro.parallel`: the serial engine, or with
``workers``/``staleness`` the batched-staleness pool, which runs the
warm-up and every refine), and the invariant checker
(:mod:`repro.validate`) into the publish loop the daemon drives:

1. a drained batch of online events is applied through
   :func:`~repro.serve.batching.plan_batch` -- scalar runs become one
   merged :class:`~repro.core.delta.ProblemDelta`, structural events one
   each -- with routing carried across every epoch
   (:func:`~repro.core.delta.carry_routing`), one ``emergency_shed`` per
   drained batch (mid-batch routing is never read), and the backend
   refreshed in place, so a worker pool survives,
2. the gradient engine *refines* the carried state for a bounded number of
   iterations (the background re-optimisation -- warm starts mean a few
   iterations recover most of the utility, see docs/online.md),
3. the result is audited by :class:`~repro.validate.InvariantChecker` and,
   only if the audit passes, **published** as an immutable
   :class:`EpochSnapshot` via a single attribute store -- atomic under the
   GIL, so the asyncio thread answering requests never sees a torn epoch.

Requests are answered from the latest published snapshot; the staleness
bound is structural: at most the one batch currently being optimised can be
newer than what a reader sees (``current_epoch - snapshot.epoch <= 1``
whenever the optimizer is healthy; pinned in ``tests/test_serve.py``).

The session is transport-agnostic and synchronous -- the asyncio server
calls :meth:`process_batch` from an executor thread; everything here also
works standalone for tests and offline replay.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.commodity import StreamNetwork
from repro.core.delta import apply_delta, carry_routing, compile_event
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import feasibility_report, initial_routing
from repro.core.solution import Solution, build_solution
from repro.core.transform import build_extended_network
from repro.exceptions import ModelError, ServeError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.online.events import CommodityArrival, CommodityDeparture, NetworkEvent
from repro.online.rebuild import emergency_shed
from repro.serve.batching import merge_scalar_run, plan_batch
from repro.validate import InvariantChecker, ValidationReport

__all__ = ["SERVE_CHECKS", "EventOutcome", "EpochSnapshot", "ServeSession"]

# the per-epoch audit: every structural invariant of the paper's catalog.
# monotonicity needs an iterate history an online epoch does not have, and
# duality_gap solves an LP per audit -- far too slow for a 20 ms publish
# loop (it stays available via checks= for offline forensics).
SERVE_CHECKS = ("routing", "conservation", "capacity", "admission", "dummy")


@dataclass(frozen=True)
class EventOutcome:
    """What happened to one event inside a batch."""

    event: NetworkEvent
    accepted: bool
    epoch: int  # model epoch after this event's apply unit (0 if rejected)
    error: Optional[str] = None
    dropped_commodities: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EpochSnapshot:
    """One published, validated, converged-enough epoch.

    Immutable by construction: readers hold a reference and never see later
    mutation; a new epoch is a new snapshot object.
    """

    epoch: int
    seq: int  # publish sequence number (epochs can skip on rejected batches)
    utility: float
    max_utilization: float
    admitted: Dict[str, float]
    solution: Solution
    validation: Optional[ValidationReport]
    batch_size: int
    refine_iterations: int
    published_at: float = field(default_factory=time.monotonic)


class ServeSession:
    """The daemon's live model: apply batches, refine, validate, publish."""

    def __init__(
        self,
        network: StreamNetwork,
        options: Any = None,
        *,
        refine_iterations: int = 8,
        warmup_iterations: int = 200,
        validate_epochs: bool = True,
        checks: Sequence[str] = SERVE_CHECKS,
        min_admit_rate: float = 0.0,
        shed_on_event: bool = True,
        shed_bisection_steps: int = 16,
        instrumentation: Any = None,
    ) -> None:
        if refine_iterations < 1:
            raise ServeError("refine_iterations must be >= 1")
        if warmup_iterations < 1:
            raise ServeError("warmup_iterations must be >= 1")
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self.inst = inst

        config: Optional[GradientConfig] = None
        backend = None
        workers = None
        staleness = None
        if options is not None:
            from repro.options import SolveOptions

            if not isinstance(options, SolveOptions):
                raise ServeError(
                    f"options= takes a SolveOptions, got {type(options).__name__}"
                )
            if options.method != "gradient":
                raise ServeError(
                    "the serve session drives the gradient method; "
                    f"got options.method={options.method!r}"
                )
            config = options.config
            backend = options.backend
            workers = options.workers
            staleness = options.staleness
        self.config = config or GradientConfig()

        self.ext = build_extended_network(network)
        from repro.parallel.backend import resolve_backend

        self.backend = resolve_backend(backend, workers, staleness=staleness)
        self._owns_backend = self.backend is not backend
        self.algo = GradientAlgorithm(self.ext, self.config, backend=self.backend)
        self.routing = initial_routing(self.ext)

        self.refine_iterations = refine_iterations
        self.warmup_iterations = warmup_iterations
        self.validate_epochs = validate_epochs
        self.checks = tuple(checks)
        self.min_admit_rate = min_admit_rate
        self.shed_on_event = shed_on_event
        # fewer bisection steps than the offline default (40): the serving
        # path trades shed precision (2^-16 on the admission scale) for a
        # bounded publish latency, and the audit still gates every epoch
        self.shed_bisection_steps = shed_bisection_steps

        self._snapshot: Optional[EpochSnapshot] = None
        self._seq = 0
        self._refined_total = 0
        self._lock = threading.Lock()  # one process_batch at a time
        self._closed = False

    # -- read side (any thread) --------------------------------------------------

    @property
    def snapshot(self) -> Optional[EpochSnapshot]:
        """The latest published epoch (``None`` before :meth:`warmup`)."""
        return self._snapshot

    def current_epoch(self) -> int:
        """The live model's epoch (may lead the published snapshot by the
        one batch currently being optimised)."""
        return int(self.ext.epoch)

    # -- write side (the optimizer thread) ---------------------------------------

    def warmup(self) -> EpochSnapshot:
        """Converge the initial model and publish epoch 0."""
        with self._lock:
            with self.inst.phase("serve.warmup"):
                self._refine(self.warmup_iterations)
                return self._publish(batch_size=0)

    def process_batch(
        self, events: Sequence[NetworkEvent]
    ) -> Tuple[List[EventOutcome], EpochSnapshot]:
        """Apply one drained batch, refine, validate, publish.

        Every event gets an :class:`EventOutcome` in request order;
        infeasible events are rejected individually (the rest of the batch
        still lands).  Raises :class:`~repro.exceptions.ServeError` only
        when the *published epoch itself* would be invalid -- the server
        turns that into 503s for the batch while reads keep the last good
        snapshot.
        """
        with self._lock:
            if self._closed:
                raise ServeError("session is closed")
            outcomes = self._apply_events(events)
            with self.inst.phase("serve.refine"):
                self._refine(self.refine_iterations)
            outcomes = self._enforce_min_admit(outcomes)
            snapshot = self._publish(batch_size=len(events))
            return outcomes, snapshot

    # -- internals ----------------------------------------------------------------

    def _apply_events(
        self, events: Sequence[NetworkEvent]
    ) -> List[EventOutcome]:
        outcomes: Dict[int, EventOutcome] = {}
        applied_any = False
        for unit in plan_batch(events):
            try:
                if len(unit) > 1:
                    delta = merge_scalar_run(self.ext, unit)
                    self.inst.count("serve.events_coalesced", len(unit))
                else:
                    delta = compile_event(self.ext, unit[0])
            except ModelError:
                if len(unit) > 1:
                    # one bad event in a merged run: degrade to per-event
                    # applies so its neighbours still land
                    for event in unit:
                        outcomes[id(event)] = self._apply_single(event)
                    continue
                outcomes[id(unit[0])] = self._rejected(unit[0])
                continue
            self._apply_delta(delta)
            applied_any = True
            for event in unit:
                outcomes[id(event)] = EventOutcome(
                    event=event,
                    accepted=True,
                    epoch=self.current_epoch(),
                    dropped_commodities=tuple(delta.dropped_commodities),
                )
        # one shed per batch, not per unit: mid-batch routing is never read,
        # so hard capacities only need to hold before the refine/publish
        # step (the audit's capacity check pins this)
        if applied_any:
            self._shed()
        return [outcomes[id(event)] for event in events]

    def _shed(self) -> None:
        if self.shed_on_event:
            self.routing = emergency_shed(
                self.ext, self.routing,
                bisection_steps=self.shed_bisection_steps,
            )

    def _apply_single(self, event: NetworkEvent) -> EventOutcome:
        try:
            delta = compile_event(self.ext, event)
        except ModelError:
            return self._rejected(event)
        self._apply_delta(delta)
        return EventOutcome(
            event=event,
            accepted=True,
            epoch=self.current_epoch(),
            dropped_commodities=tuple(delta.dropped_commodities),
        )

    def _rejected(self, event: NetworkEvent) -> EventOutcome:
        exc = sys.exc_info()[1]
        self.inst.count("serve.events_rejected")
        return EventOutcome(
            event=event, accepted=False, epoch=0, error=str(exc)
        )

    def _apply_delta(self, delta: Any) -> None:
        old_ext = self.ext
        with self.inst.phase("serve.apply"):
            applied = apply_delta(self.ext, delta)
            self.ext = applied.ext
            self.routing = carry_routing(
                old_ext, self.routing, self.ext, applied.maps
            )
            self.algo.refresh(applied)
        self.inst.count("serve.deltas_applied")
        self.inst.count(
            "serve.deltas_structural" if applied.structural
            else "serve.deltas_scalar"
        )
        self.inst.gauge("serve.epoch", float(self.ext.epoch))

    def _refine(self, iterations: int) -> None:
        routing, _context = self.backend.advance(
            self.routing, None, iterations, eta=self.config.eta
        )
        self.routing = routing
        self._refined_total += iterations
        self.inst.count("serve.refine_iterations", iterations)

    def _enforce_min_admit(
        self, outcomes: List[EventOutcome]
    ) -> List[EventOutcome]:
        """Admission policy: revert arrivals the optimizer starved.

        With ``min_admit_rate > 0`` an accepted arrival whose admitted rate
        after refinement is still below the bar is *reverted* (a departure
        is applied) and reported as a rejection -- admission control with
        teeth, not just bookkeeping.
        """
        if self.min_admit_rate <= 0.0:
            return outcomes
        breakdown_admitted = self._admitted_by_name()
        out: List[EventOutcome] = []
        reverted = False
        for outcome in outcomes:
            event = outcome.event
            if (
                outcome.accepted
                and isinstance(event, CommodityArrival)
                and event.commodity is not None
                and breakdown_admitted.get(event.commodity.name, 0.0)
                < self.min_admit_rate
            ):
                name = event.commodity.name
                try:
                    self._apply_delta(
                        compile_event(
                            self.ext,
                            CommodityDeparture(at_iteration=0, commodity=name),
                        )
                    )
                except ModelError:
                    out.append(outcome)  # cannot revert: keep the admit
                    continue
                reverted = True
                self.inst.count("serve.admits_reverted")
                out.append(
                    EventOutcome(
                        event=event,
                        accepted=False,
                        epoch=0,
                        error=(
                            f"admitted rate below min_admit_rate="
                            f"{self.min_admit_rate:g}"
                        ),
                    )
                )
            else:
                out.append(outcome)
        if reverted:
            self._shed()
            self._refine(self.refine_iterations)
        return out

    def _admitted_by_name(self) -> Dict[str, float]:
        solution = build_solution(
            self.ext, self.routing, self.config.cost_model,
            method="gradient-serve",
        )
        return solution.admitted_by_name

    def _publish(self, batch_size: int) -> EpochSnapshot:
        with self.inst.phase("serve.publish"):
            solution = build_solution(
                self.ext,
                self.routing,
                self.config.cost_model,
                method="gradient-serve",
                iterations=self._refined_total,
            )
            report: Optional[ValidationReport] = None
            if self.validate_epochs:
                checker = InvariantChecker(
                    self.ext, checks=self.checks, instrumentation=self.inst
                )
                report = checker.check_solution(solution)
                if not report.passed:
                    self.inst.count("serve.epoch_validation_failures")
                    failed = ", ".join(report.failed_names)
                    raise ServeError(
                        f"epoch {self.current_epoch()} failed validation "
                        f"({failed}); not published"
                    )
            self._seq += 1
            snapshot = EpochSnapshot(
                epoch=self.current_epoch(),
                seq=self._seq,
                utility=solution.utility,
                max_utilization=feasibility_report(
                    self.ext, self.routing
                ).max_utilization,
                admitted=solution.admitted_by_name,
                solution=solution,
                validation=report,
                batch_size=batch_size,
                refine_iterations=self._refined_total,
            )
        self._snapshot = snapshot
        self.inst.count("serve.epochs_published")
        self.inst.gauge("serve.published_epoch", float(snapshot.epoch))
        self.inst.gauge("serve.utility", snapshot.utility)
        if self.inst.enabled:
            self.inst.registry.histogram("serve.batch_size").observe(
                float(batch_size)
            )
            self.inst.event(
                "serve.publish",
                epoch=snapshot.epoch,
                seq=snapshot.seq,
                utility=snapshot.utility,
                batch_size=batch_size,
            )
        return snapshot

    def close(self) -> None:
        """Release the execution backend (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_backend:
                self.backend.close()
