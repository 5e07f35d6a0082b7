"""Differential oracle: two solvers, one workload, a toleranced diff.

The highest-leverage guard for perf work on this codebase is not a unit
test but a *differential* one: run two algorithms (or the same algorithm
on two execution backends) on the same instance and compare admitted
rates, flows, and final utility.  Three comparison regimes:

* **cross-algorithm** (gradient vs the centralized LP / Frank-Wolfe
  optimum, or vs back-pressure): utilities must agree within a relative
  tolerance.  Admitted rates and flows are reported but not enforced by
  default -- optima can be degenerate, so different solvers legitimately
  reach the same utility through different rates.
* **drift-gated** (serial vs the batched-staleness pool, or vs the
  barrier-free async engine): :meth:`DifferentialOracle.compare` with
  ``utility_rtol=STALENESS_DRIFT_RTOL``, or
  :meth:`DifferentialOracle.compare_async`.
* **engine vs reference** (:meth:`DifferentialOracle.compare_reference`):
  the :class:`~repro.core.state.ModelState` engine's ``step`` and the
  paper-literal scalar ``step_reference`` advance in lockstep and must
  agree bit for bit on every iterate.

The calibrated gradient configuration below is what the CI fuzz sweep
(``benchmarks/fuzz_oracle.py``) runs over the seed matrix of
:func:`repro.validate.strategies.oracle_seed_matrix`: adaptive stepping
keeps the small random instances monotone, and 6000 iterations lands the
final utility within a few percent of ``solve_concave`` (the remaining
gap is the eps-barrier headroom, not solver error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gradient import GradientConfig
from repro.validate.checks import solution_flows

__all__ = [
    "calibrated_gradient_config",
    "STALENESS_DRIFT_RTOL",
    "AlgorithmSpec",
    "OracleReport",
    "RebuildStepReport",
    "RebuildOracleReport",
    "DifferentialOracle",
]

# The documented drift bound of the worker pool's bounded-staleness batches
# (``ParallelBackend(staleness=K)``) and of the barrier-free async engine:
# the relaxed run's final utility must stay within this relative tolerance
# of the serial run on the same instance.  Small staleness only delays the
# global ``dadf`` by a few iterations -- well inside the tolerance the
# paper's Section-5 asynchronous protocol grants -- so drift stays a
# fraction of the eps-barrier headroom (see docs/parallelism.md and
# benchmarks/bench_stale_marginals.py for the measurements behind the
# number).  Use
# ``DifferentialOracle(utility_rtol=STALENESS_DRIFT_RTOL).compare(...)``.
STALENESS_DRIFT_RTOL = 0.02


def calibrated_gradient_config(max_iterations: int = 6000) -> GradientConfig:
    """The oracle's gradient configuration, tuned on the CI seed matrix."""
    return GradientConfig(
        eta=0.02, adaptive_eta=True, max_iterations=max_iterations,
        record_every=50,
    )


@dataclass(frozen=True)
class AlgorithmSpec:
    """One side of a differential comparison: method + config + backend.

    ``workers``/``backend``/``staleness`` are forwarded verbatim to
    :func:`repro.solve`, so a spec can pin the batched-staleness pool
    (``workers=N, staleness=K``) or a borrowed backend instance.
    """

    method: str = "gradient"
    config: Any = None
    workers: Any = None
    backend: Any = None
    label: Optional[str] = None
    staleness: Optional[int] = None
    # execution model for method="distributed": None/"sync" phase barriers,
    # "async" the barrier-free event-driven engine
    execution: Optional[str] = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        parts = []
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.workers is not None:
            parts.append(f"workers={self.workers}")
        if self.staleness:
            parts.append(f"staleness={self.staleness}")
        if self.execution is not None:
            parts.append(f"execution={self.execution}")
        return self.method + (f"[{', '.join(parts)}]" if parts else "")


@dataclass
class OracleReport:
    """The diff of two runs on the same workload."""

    label_a: str
    label_b: str
    utility_a: float
    utility_b: float
    utility_rel_diff: float
    admitted_max_diff: float
    flow_max_diff: Optional[float]  # None when either side exposes no flows
    trajectories_equal: Optional[bool]  # None when histories aren't comparable
    bit_identical: Optional[bool]  # None when representations aren't comparable
    utility_rtol: float
    admitted_atol: Optional[float]
    require_bit_identical: bool
    validation_passed: Optional[bool] = None  # set when validate= was on
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok = self.utility_rel_diff <= self.utility_rtol
        if self.admitted_atol is not None:
            ok = ok and self.admitted_max_diff <= self.admitted_atol
        if self.require_bit_identical:
            ok = ok and bool(self.bit_identical)
        if self.validation_passed is not None:
            ok = ok and self.validation_passed
        return ok

    def summary(self) -> str:
        verdict = "AGREE" if self.passed else "DISAGREE"
        lines = [
            f"Oracle {verdict}: {self.label_a} vs {self.label_b}",
            f"  utility: {self.utility_a:.6g} vs {self.utility_b:.6g} "
            f"(rel diff {self.utility_rel_diff:.3g}, rtol {self.utility_rtol:.3g})",
            f"  admitted rates: max |diff| {self.admitted_max_diff:.3g}",
        ]
        if self.flow_max_diff is not None:
            lines.append(f"  flows: max |diff| {self.flow_max_diff:.3g}")
        if self.bit_identical is not None:
            lines.append(
                "  bit-identical: " + ("yes" if self.bit_identical else "NO")
                + (" (required)" if self.require_bit_identical else "")
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        def _f(x: Optional[float]) -> Optional[float]:
            return None if x is None or not np.isfinite(x) else float(x)

        return {
            "schema": "repro.oracle/1",
            "passed": self.passed,
            "a": self.label_a,
            "b": self.label_b,
            "utility_a": _f(self.utility_a),
            "utility_b": _f(self.utility_b),
            "utility_rel_diff": _f(self.utility_rel_diff),
            "admitted_max_diff": _f(self.admitted_max_diff),
            "flow_max_diff": _f(self.flow_max_diff),
            "trajectories_equal": self.trajectories_equal,
            "bit_identical": self.bit_identical,
            "utility_rtol": _f(self.utility_rtol),
            "admitted_atol": _f(self.admitted_atol),
            "require_bit_identical": self.require_bit_identical,
            "validation_passed": self.validation_passed,
        }


@dataclass
class RebuildStepReport:
    """One event's worth of incremental-vs-from-scratch comparison."""

    event: str
    epoch: int
    structural: bool
    dropped_commodities: Tuple[str, ...]
    model_diffs: List[str]  # bit-level diffs incl. every ModelState array
    routing_identical: bool
    routing_valid: bool

    @property
    def passed(self) -> bool:
        return not self.model_diffs and self.routing_identical and self.routing_valid


@dataclass
class RebuildOracleReport:
    """Replay verdict of a whole event sequence (``compare_rebuild``)."""

    steps: List[RebuildStepReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)

    def summary(self) -> str:
        verdict = "AGREE" if self.passed else "DISAGREE"
        lines = [
            f"Rebuild oracle {verdict}: {len(self.steps)} event(s) replayed"
        ]
        for step in self.steps:
            status = "ok" if step.passed else "FAIL"
            lines.append(
                f"  epoch {step.epoch} [{step.event}] {status}"
                + (f" -- {'; '.join(step.model_diffs)}" if step.model_diffs else "")
                + ("" if step.routing_identical else " -- routing differs")
                + ("" if step.routing_valid else " -- routing invalid")
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.rebuild_oracle/1",
            "passed": self.passed,
            "steps": [
                {
                    "event": s.event,
                    "epoch": s.epoch,
                    "structural": s.structural,
                    "dropped_commodities": list(s.dropped_commodities),
                    "model_diffs": list(s.model_diffs),
                    "routing_identical": s.routing_identical,
                    "routing_valid": s.routing_valid,
                    "passed": s.passed,
                }
                for s in self.steps
            ],
        }


class DifferentialOracle:
    """Runs two algorithm specs on one workload and diffs the outcomes.

    Parameters
    ----------
    utility_rtol:
        Enforced relative tolerance on the final utilities.  The default
        (0.1) covers the eps-barrier headroom of the penalised gradient
        methods against the unpenalised exact optimum.
    admitted_atol:
        Optional absolute tolerance on per-commodity admitted rates.
        ``None`` (default) reports the diff without enforcing it --
        degenerate optima make rate agreement a choice, not a law.
    """

    def __init__(
        self,
        utility_rtol: float = 0.1,
        admitted_atol: Optional[float] = None,
    ):
        self.utility_rtol = utility_rtol
        self.admitted_atol = admitted_atol

    def compare(
        self,
        stream_network,
        spec_a: AlgorithmSpec,
        spec_b: AlgorithmSpec,
        validate: Any = False,
        require_bit_identical: bool = False,
    ) -> OracleReport:
        """Solve the workload under both specs and diff the results.

        ``validate=`` is forwarded to :func:`repro.solve`, so each side can
        additionally be audited against the invariant catalog (the report's
        ``validation_passed`` then gates ``passed`` too).
        """
        from repro import solve  # runtime import: repro.validate loads first

        results = [
            solve(
                stream_network,
                method=spec.method,
                config=spec.config,
                workers=spec.workers,
                backend=spec.backend,
                staleness=spec.staleness,
                execution=spec.execution,
                full_result=True,
                validate=validate,
            )
            for spec in (spec_a, spec_b)
        ]
        result_a, result_b = results
        sol_a, sol_b = result_a.solution, result_b.solution
        ext = sol_a.ext

        utility_a = float(sol_a.utility)
        utility_b = float(sol_b.utility)
        rel = abs(utility_a - utility_b) / max(1.0, abs(utility_a), abs(utility_b))
        admitted_diff = float(
            np.abs(np.asarray(sol_a.admitted) - np.asarray(sol_b.admitted)).max()
        )

        flows_a = solution_flows(ext, sol_a)
        flows_b = solution_flows(sol_b.ext, sol_b)
        flow_diff: Optional[float] = None
        if flows_a is not None and flows_b is not None:
            flow_diff = float(np.abs(flows_a - flows_b).max())

        utils_a = np.asarray(result_a.utilities)
        utils_b = np.asarray(result_b.utilities)
        trajectories_equal: Optional[bool] = None
        if utils_a.shape == utils_b.shape and utils_a.size > 1 and utils_b.size > 1:
            trajectories_equal = bool(np.array_equal(utils_a, utils_b))

        bit_identical: Optional[bool] = None
        if sol_a.routing is not None and sol_b.routing is not None:
            bit_identical = bool(
                np.array_equal(sol_a.routing.phi, sol_b.routing.phi)
                and np.array_equal(
                    np.asarray(sol_a.admitted), np.asarray(sol_b.admitted)
                )
                and (trajectories_equal is not False)
            )
        elif require_bit_identical:
            bit_identical = False  # nothing comparable at the bit level

        validation_passed: Optional[bool] = None
        if validate:
            reports = [getattr(r, "validation", None) for r in results]
            validation_passed = all(rep is not None and rep.passed for rep in reports)

        return OracleReport(
            label_a=spec_a.name,
            label_b=spec_b.name,
            utility_a=utility_a,
            utility_b=utility_b,
            utility_rel_diff=rel,
            admitted_max_diff=admitted_diff,
            flow_max_diff=flow_diff,
            trajectories_equal=trajectories_equal,
            bit_identical=bit_identical,
            utility_rtol=self.utility_rtol,
            admitted_atol=self.admitted_atol,
            require_bit_identical=require_bit_identical,
            validation_passed=validation_passed,
        )

    def compare_reference(
        self,
        stream_network,
        iterations: int = 120,
        config: Any = None,
    ) -> OracleReport:
        """The engine vs the scalar reference, in lockstep: must be bit-equal.

        Starting from the shed-everything routing, one
        :class:`~repro.core.gradient.GradientAlgorithm` advances two
        iterates ``iterations`` times: one through ``step`` (the
        :class:`~repro.core.state.ModelState` sweeps, fed by the cached
        iteration context) and one through ``step_reference`` (the
        paper-literal scalar walks).  Every routing iterate must match bit
        for bit, and so must the utility and cost of every iterate, which
        the reference side evaluates from its own scalar flow solve and
        usage sum.  ``extras["diverged_at"]`` names the first iterate that
        differs.  Both sides run the configured ``eta``: adaptive stepping
        is a run-loop controller, not part of the update map.
        """
        from repro.core.gradient import GradientAlgorithm
        from repro.core.marginals import evaluate_cost
        from repro.core.routing import (
            initial_routing,
            resource_usage_scalar,
            solve_traffic_scalar,
        )
        from repro.core.transform import build_extended_network

        cfg = config or calibrated_gradient_config(max_iterations=iterations)
        ext = build_extended_network(stream_network)
        algo = GradientAlgorithm(ext, cfg)

        def reference_cost(routing):
            traffic = solve_traffic_scalar(ext, routing)
            usage = resource_usage_scalar(ext, routing, traffic)
            return evaluate_cost(ext, routing, cfg.cost_model, traffic, usage=usage)

        engine = reference = initial_routing(ext)
        context = algo.compute_context(engine)
        cost_a, cost_b = context.breakdown, reference_cost(reference)
        diverged_at: Optional[int] = None
        for iteration in range(1, iterations + 1):
            engine = algo.step(engine, context=context)
            context = algo.compute_context(engine)
            reference = algo.step_reference(reference)
            cost_a, cost_b = context.breakdown, reference_cost(reference)
            if not (
                np.array_equal(engine.phi, reference.phi)
                and (cost_a.utility, cost_a.total) == (cost_b.utility, cost_b.total)
            ):
                diverged_at = iteration
                break

        identical = diverged_at is None
        return OracleReport(
            label_a="gradient[engine]",
            label_b="gradient[scalar-reference]",
            utility_a=cost_a.utility,
            utility_b=cost_b.utility,
            utility_rel_diff=abs(cost_a.utility - cost_b.utility)
            / max(1.0, abs(cost_a.utility), abs(cost_b.utility)),
            admitted_max_diff=float(np.abs(cost_a.admitted - cost_b.admitted).max()),
            flow_max_diff=None,
            trajectories_equal=identical,
            bit_identical=identical,
            utility_rtol=self.utility_rtol,
            admitted_atol=self.admitted_atol,
            require_bit_identical=True,
            extras={"iterations": iterations, "diverged_at": diverged_at},
        )

    def compare_async(
        self,
        stream_network,
        epochs: int = 60,
        config: Any = None,
        staleness: Optional[int] = None,
        faults: Any = None,
        links: Any = None,
        seed: int = 0,
        fault_until_tick: Optional[int] = None,
        utility_rtol: Optional[float] = None,
    ) -> OracleReport:
        """Barrier-free async run vs the synchronous reference, drift-gated.

        The reference is the vectorized synchronous engine
        (:class:`~repro.core.gradient.GradientAlgorithm`, bit-identical to
        the phase-barrier distributed runner) driven for exactly ``epochs``
        iterations; the async side is a direct
        :class:`~repro.simulation.AsyncGradientRun` so the comparison can
        inject faults (``faults``/``links``/``seed``/``fault_until_tick``
        are forwarded to its :class:`~repro.simulation.FaultyChannel`).
        The enforced bound defaults to :data:`STALENESS_DRIFT_RTOL` -- the
        same contract the worker pool's bounded-staleness batches carry,
        which is exactly the relaxation the async freshness rule
        re-implements at per-message granularity.
        """
        from dataclasses import replace as dc_replace

        from repro.core.gradient import GradientAlgorithm
        from repro.core.transform import build_extended_network
        from repro.simulation.async_engine import (
            DEFAULT_STALENESS,
            AsyncGradientRun,
        )

        cfg = config or calibrated_gradient_config(max_iterations=epochs)
        # both sides must execute the identical update map the same number
        # of times: pin the iteration budget, disable early convergence
        # stopping, and (adaptive stepping being a *global* controller a
        # barrier-free node cannot implement) freeze the step scale
        cfg = dc_replace(
            cfg, max_iterations=epochs, tolerance=0.0, adaptive_eta=False
        )
        k = staleness if staleness is not None else DEFAULT_STALENESS
        rtol = utility_rtol if utility_rtol is not None else STALENESS_DRIFT_RTOL

        ext = build_extended_network(stream_network)
        reference = GradientAlgorithm(ext, cfg).run()
        async_run = AsyncGradientRun(
            ext,
            cfg,
            staleness=k,
            faults=faults,
            links=links,
            seed=seed,
            fault_until_tick=fault_until_tick,
        )
        result = async_run.run(epochs, record_every=max(1, cfg.record_every))

        sol_a, sol_b = reference.solution, result.solution
        utility_a = float(sol_a.utility)
        utility_b = float(sol_b.utility)
        rel = abs(utility_a - utility_b) / max(1.0, abs(utility_a), abs(utility_b))
        admitted_diff = float(
            np.abs(np.asarray(sol_a.admitted) - np.asarray(sol_b.admitted)).max()
        )
        flows_a = solution_flows(ext, sol_a)
        flows_b = solution_flows(ext, sol_b)
        flow_diff: Optional[float] = None
        if flows_a is not None and flows_b is not None:
            flow_diff = float(np.abs(flows_a - flows_b).max())

        faulted = faults is not None or bool(links)
        label_b = f"distributed[execution=async, staleness={k}" + (
            f", faults seed={seed}]" if faulted else "]"
        )
        return OracleReport(
            label_a="gradient[sync-reference]",
            label_b=label_b,
            utility_a=utility_a,
            utility_b=utility_b,
            utility_rel_diff=rel,
            admitted_max_diff=admitted_diff,
            flow_max_diff=flow_diff,
            trajectories_equal=None,  # mixed-epoch snapshots aren't comparable
            bit_identical=None,
            utility_rtol=rtol,
            admitted_atol=self.admitted_atol,
            require_bit_identical=False,
            extras={"async_metrics": result.metrics.as_dict()},
        )

    def compare_rebuild(
        self,
        stream_network,
        events: Sequence[Any],
        gradient_steps: int = 0,
        config: Any = None,
    ) -> RebuildOracleReport:
        """Replay ``events`` through the delta path and from-scratch rebuilds.

        Two timelines advance in lockstep from the same initial instance:
        one through :func:`repro.core.delta.compile_event` /
        ``apply_delta`` (epoch-versioned, incremental), one through
        :func:`repro.online.rebuild.apply_event` + a full
        :func:`build_extended_network`.  After every event the two models
        must be **bit-identical** down to each compiled
        :class:`~repro.core.state.ModelState` array
        (:func:`repro.core.delta.diff_extended_networks` with
        ``compare_plans=True``), the carried routing states must match
        exactly, and the routing must validate.  ``gradient_steps``
        iterations run after each event on both timelines, so any latent
        divergence in the spliced network would surface as differing
        iterates.

        This is the extension-point contract promised in docs/validation.md
        for the online layer: the incremental path may be arbitrarily
        clever, but it must be indistinguishable from recompiling the
        world.
        """
        from repro.core.delta import (
            apply_delta,
            build_index_maps,
            carry_routing,
            compile_event,
            diff_extended_networks,
        )
        from repro.core.gradient import GradientAlgorithm
        from repro.core.routing import initial_routing, validate_routing
        from repro.core.transform import build_extended_network
        from repro.exceptions import RoutingError
        from repro.online.rebuild import apply_event, emergency_shed

        cfg = config or calibrated_gradient_config()

        ext_inc = build_extended_network(stream_network)
        net_ref = stream_network
        ext_ref = build_extended_network(stream_network)
        routing_inc = initial_routing(ext_inc)
        routing_ref = initial_routing(ext_ref)

        def run_steps(ext, routing):
            if gradient_steps <= 0:
                return routing
            algo = GradientAlgorithm(ext, cfg)
            for _ in range(gradient_steps):
                routing = algo.step(routing)
            return routing

        report = RebuildOracleReport()
        for event in events:
            diffs: List[str] = []

            # incremental timeline
            old_inc = ext_inc
            old_epoch = old_inc.epoch
            delta = compile_event(ext_inc, event)
            applied = apply_delta(ext_inc, delta)
            ext_inc = applied.ext
            if ext_inc.epoch != old_epoch + 1:
                diffs.append(
                    f"epoch did not advance by one: {old_epoch} -> {ext_inc.epoch}"
                )
            routing_inc = carry_routing(old_inc, routing_inc, ext_inc, applied.maps)

            # from-scratch timeline
            rebuilt = apply_event(net_ref, event)
            net_ref = rebuilt.network
            old_ref = ext_ref
            ext_ref = build_extended_network(net_ref, require_connected=False)
            routing_ref = carry_routing(
                old_ref, routing_ref, ext_ref, build_index_maps(old_ref, ext_ref)
            )

            if tuple(delta.dropped_commodities) != tuple(
                rebuilt.dropped_commodities
            ):
                diffs.append(
                    f"dropped commodities disagree: {delta.dropped_commodities} "
                    f"vs {tuple(rebuilt.dropped_commodities)}"
                )
            diffs.extend(
                diff_extended_networks(ext_inc, ext_ref, compare_plans=True)
            )

            routing_inc = emergency_shed(ext_inc, routing_inc)
            routing_ref = emergency_shed(ext_ref, routing_ref)
            routing_inc = run_steps(ext_inc, routing_inc)
            routing_ref = run_steps(ext_ref, routing_ref)

            routing_identical = bool(
                np.array_equal(routing_inc.phi, routing_ref.phi)
            )
            try:
                validate_routing(ext_inc, routing_inc)
                routing_valid = True
            except RoutingError:
                routing_valid = False

            report.steps.append(
                RebuildStepReport(
                    event=type(event).__name__,
                    epoch=ext_inc.epoch,
                    structural=applied.structural,
                    dropped_commodities=tuple(delta.dropped_commodities),
                    model_diffs=diffs,
                    routing_identical=routing_identical,
                    routing_valid=routing_valid,
                )
            )
        return report
