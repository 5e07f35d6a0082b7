"""The invariant catalog: one authoritative audit of any solution.

The paper's correctness story rests on a handful of structural invariants;
before this module they were scattered across ``feasibility_report`` and
ad-hoc test asserts.  :class:`InvariantChecker` collects them behind one
call and returns a :class:`ValidationReport` with a numeric residual and a
pass/fail verdict per check:

``routing``
    The routing decision itself (Section 4): ``phi`` non-negative,
    restricted to the commodity DAGs, rows summing to one at non-sink
    nodes.  Skipped for arc-flow solutions that carry no ``phi``.
``conservation``
    Gain-aware flow conservation (Property 1 / eq. (7)) at every interior
    node: out-flow equals beta-weighted in-flow.  Dummy sources are
    excluded here -- their balance *is* the ``dummy`` check -- and sinks
    absorb by construction.
``capacity``
    Node budgets on the extended graph (eq. (6)), covering both processing
    nodes and the bandwidth nodes that stand in for physical links.
``admission``
    Admission bounds ``0 <= a_j <= lambda_j`` on the solution's claimed
    admitted rates.
``dummy``
    Dummy-link accounting at each super-source: flow on the input link
    plus flow on the difference link equals the offered load ``lambda_j``
    (the construction that turns admission control into routing).
``monotonicity``
    The utility trajectory never decreases along the iterate history
    (Theorem 1's descent property, up to a small relative tolerance that
    absorbs float noise under adaptive stepping).
``duality_gap``
    A certificate of optimality from marginal utilities: linearise the
    objective at the solution's admitted rates (weights ``U_j'(a_j)``) and
    maximise it over the arc-flow polytope.  The gap
    ``sum_j U_j'(a_j) (a*_j - a_j)`` upper-bounds the true suboptimality
    (concavity), vanishes at the optimum, and is exactly the Frank-Wolfe
    gap of :mod:`repro.solver.frankwolfe`.  Enforced for the exact methods
    (``lp``, ``frank-wolfe``); informational for the penalised iterative
    methods, which keep barrier headroom and legitimately sit a few
    percent below the unpenalised optimum.

Residuals are relative (scaled by ``max(1, .)`` of the natural magnitude)
so one :class:`Tolerances` object works across instance sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import commodity_edge_flows, solve_traffic
from repro.core.solution import Solution
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ValidationError
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = [
    "CHECK_NAMES",
    "Tolerances",
    "CheckResult",
    "ValidationReport",
    "InvariantChecker",
    "solution_flows",
    "attach_validation",
]

CHECK_NAMES = (
    "routing",
    "conservation",
    "capacity",
    "admission",
    "dummy",
    "monotonicity",
    "duality_gap",
)

# methods whose duality gap must vanish (they claim the true optimum);
# everything else gets the informational tolerance
EXACT_METHODS = frozenset({"lp", "frank-wolfe"})


@dataclass(frozen=True)
class Tolerances:
    """Per-check relative tolerances (see the module docstring for units)."""

    routing: float = 1e-7
    conservation: float = 1e-8
    capacity: float = 1e-9
    admission: float = 1e-9
    dummy: float = 1e-8
    monotonicity: float = 1e-4
    duality_gap: float = 1e-6
    # penalised methods keep barrier headroom, so their gap is a few percent
    # by design; report it, never fail on it
    duality_gap_iterative: float = float("inf")

    def for_check(self, name: str, method: str) -> float:
        if name == "duality_gap" and method not in EXACT_METHODS:
            return self.duality_gap_iterative
        return getattr(self, name)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    passed: bool
    residual: float  # relative; NaN when skipped
    tolerance: float
    detail: str = ""
    skipped: bool = False

    def to_dict(self) -> Dict[str, Any]:
        def _finite(x: float) -> Optional[float]:
            x = float(x)
            return x if np.isfinite(x) else None

        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "residual": _finite(self.residual),
            "tolerance": _finite(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """Structured audit of one solution/run against the invariant catalog."""

    method: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    @property
    def failed_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.failures)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in this report")

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        lines = [f"Validation {verdict} ({self.method})"]
        width = max(len(c.name) for c in self.checks) if self.checks else 0
        for c in self.checks:
            if c.skipped:
                status = "skip"
                value = c.detail or "not applicable"
            else:
                status = "ok" if c.passed else "FAIL"
                value = f"residual {c.residual:.3g} (tol {c.tolerance:.3g})"
                if c.detail:
                    value += f"  [{c.detail}]"
            lines.append(f"  {c.name.ljust(width)}  {status:4s}  {value}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.validation/1",
            "method": self.method,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def raise_for_failures(self) -> None:
        """Raise :class:`ValidationError` if any check failed."""
        if self.passed:
            return
        parts = [
            f"{c.name} (residual {c.residual:.3g} > tol {c.tolerance:.3g})"
            for c in self.failures
        ]
        raise ValidationError(
            f"solution ({self.method}) violates {len(parts)} invariant(s): "
            + "; ".join(parts)
        )


def solution_flows(ext: ExtendedNetwork, solution: Solution) -> Optional[np.ndarray]:
    """The solution's *claimed* per-commodity edge flows ``(J, E)``.

    Routing-based solutions derive flows from ``phi`` and the cached
    traffic (the cache is preferred so the checker audits what the solver
    actually reported, not a fresh recomputation); arc-flow solutions carry
    them in ``extras["arc_flows"]``.  Returns ``None`` when the solution
    stores neither (the back-pressure baseline reports only rates).
    """
    if solution.routing is not None:
        traffic = solution.extras.get("traffic")
        if traffic is None:
            traffic = solve_traffic(ext, solution.routing)
        return commodity_edge_flows(
            ext, solution.routing, np.asarray(traffic, dtype=float)
        )
    arc = solution.extras.get("arc_flows")
    if arc is not None:
        return np.asarray(arc, dtype=float)
    return None


def _skip(name: str, detail: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=True,
        residual=float("nan"),
        tolerance=float("nan"),
        detail=detail,
        skipped=True,
    )


class InvariantChecker:
    """Audits a :class:`Solution` or ``RunResult`` against the catalog.

    Parameters
    ----------
    ext:
        The extended network the solution lives on.
    tolerances:
        Optional :class:`Tolerances` override.
    checks:
        Optional subset of :data:`CHECK_NAMES` to run (default: all).
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`; bumps the
        ``validate.checks_run`` / ``validate.checks_failed`` counters and
        records a ``validation`` event per audit.
    """

    def __init__(
        self,
        ext: ExtendedNetwork,
        tolerances: Optional[Tolerances] = None,
        checks: Optional[Iterable[str]] = None,
        instrumentation=None,
    ):
        self.ext = ext
        self.tolerances = tolerances if tolerances is not None else Tolerances()
        names = tuple(checks) if checks is not None else CHECK_NAMES
        unknown = sorted(set(names) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(
                f"unknown check name(s) {unknown}; expected a subset of "
                f"{CHECK_NAMES}"
            )
        self.check_names = names
        self.inst = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._problem = None  # lazy arc-flow polytope for the duality check

    # -- entry points --------------------------------------------------------------

    def check_result(self, result: Any) -> ValidationReport:
        """Audit a ``RunResult``: its solution plus the iterate history."""
        utilities: Optional[np.ndarray] = None
        history = getattr(result, "history", None)
        if history is not None and len(history) >= 2:
            utilities = np.asarray(result.utilities, dtype=float)
        return self.check_solution(result.solution, utilities=utilities)

    def check_solution(
        self, solution: Solution, utilities: Optional[Sequence[float]] = None
    ) -> ValidationReport:
        """Audit one solution (``utilities`` optionally supplies a history)."""
        flows = solution_flows(self.ext, solution)
        report = ValidationReport(method=solution.method)
        for name in self.check_names:
            if name == "routing":
                result = self._check_routing(solution)
            elif name == "conservation":
                result = self._check_conservation(flows)
            elif name == "capacity":
                result = self._check_capacity(flows)
            elif name == "admission":
                result = self._check_admission(solution)
            elif name == "dummy":
                result = self._check_dummy(flows)
            elif name == "monotonicity":
                result = self._check_monotonicity(solution, utilities)
            else:  # duality_gap
                result = self._check_duality_gap(solution)
            report.checks.append(result)
        self._observe(report)
        return report

    def _observe(self, report: ValidationReport) -> None:
        inst = self.inst
        if not inst.enabled:
            return
        run = sum(1 for c in report.checks if not c.skipped)
        failed = len(report.failures)
        inst.count("validate.checks_run", run)
        inst.count("validate.checks_failed", failed)
        inst.event(
            "validation",
            method=report.method,
            passed=report.passed,
            failed=list(report.failed_names),
        )

    # -- individual checks ---------------------------------------------------------

    def _check_routing(self, solution: Solution) -> CheckResult:
        routing = solution.routing
        tol = self.tolerances.routing
        if routing is None:
            return _skip("routing", "solution carries no routing state")
        ext = self.ext
        phi = routing.phi
        if phi.shape != (ext.num_commodities, ext.num_edges):
            return CheckResult(
                name="routing",
                passed=False,
                residual=float("inf"),
                tolerance=tol,
                detail=f"phi has shape {phi.shape}, expected "
                f"{(ext.num_commodities, ext.num_edges)}",
            )
        negative = max(0.0, float(-phi.min())) if phi.size else 0.0
        off_graph = float(np.abs(phi * ~ext.allowed).max()) if phi.size else 0.0
        row_residual = 0.0
        worst = ""
        for view in ext.commodities:
            j = view.index
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = ext.commodity_out_edges[j][node]
                if not out:
                    continue
                gap = abs(float(phi[j, out].sum()) - 1.0)
                if gap > row_residual:
                    row_residual = gap
                    worst = (
                        f"row sum at {ext.nodes[node].name!r} "
                        f"({view.name!r}) off by {gap:.3g}"
                    )
        residual = max(negative, off_graph, row_residual)
        detail = ""
        if residual > tol:
            if negative >= max(off_graph, row_residual):
                detail = f"negative fraction {-negative:.3g}"
            elif off_graph >= row_residual:
                detail = f"off-graph fraction {off_graph:.3g}"
            else:
                detail = worst
        return CheckResult(
            name="routing",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_conservation(self, flows: Optional[np.ndarray]) -> CheckResult:
        if flows is None:
            return _skip("conservation", "solution carries no flow representation")
        ext = self.ext
        tol = self.tolerances.conservation
        num_c, num_v = ext.num_commodities, ext.num_nodes
        out_sum = np.zeros((num_c, num_v))
        in_sum = np.zeros((num_c, num_v))
        for j in range(num_c):
            np.add.at(out_sum[j], ext.edge_tail, flows[j])
            np.add.at(in_sum[j], ext.edge_head, flows[j] * ext.gain[j])
        imbalance = out_sum - in_sum
        # sinks absorb; the dummy sources' balance is the `dummy` check
        rows = np.arange(num_c)
        imbalance[rows, [v.sink for v in ext.commodities]] = 0.0
        imbalance[rows, ext.commodity_dummies] = 0.0
        scaled = np.abs(imbalance) / np.maximum(1.0, ext.commodity_max_rates)[:, None]
        residual = float(scaled.max()) if scaled.size else 0.0
        detail = ""
        if residual > tol:
            j, node = np.unravel_index(int(scaled.argmax()), scaled.shape)
            detail = (
                f"imbalance {imbalance[j, node]:.3g} at "
                f"{ext.nodes[node].name!r} ({ext.commodities[j].name!r})"
            )
        return CheckResult(
            name="conservation",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_capacity(self, flows: Optional[np.ndarray]) -> CheckResult:
        if flows is None:
            return _skip("capacity", "solution carries no flow representation")
        ext = self.ext
        tol = self.tolerances.capacity
        edge_usage = np.add.reduce(flows * ext.cost, axis=0)
        node_usage = np.zeros(ext.num_nodes)
        np.add.at(node_usage, ext.edge_tail, edge_usage)
        finite = np.isfinite(ext.capacity)
        over = np.full(ext.num_nodes, -np.inf)
        over[finite] = (node_usage[finite] - ext.capacity[finite]) / np.maximum(
            1.0, ext.capacity[finite]
        )
        residual = max(0.0, float(over.max())) if finite.any() else 0.0
        detail = ""
        if residual > tol:
            node = int(over.argmax())
            detail = (
                f"{ext.nodes[node].name!r} uses {node_usage[node]:.4g} "
                f"of {ext.capacity[node]:.4g}"
            )
        return CheckResult(
            name="capacity",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_admission(self, solution: Solution) -> CheckResult:
        ext = self.ext
        tol = self.tolerances.admission
        admitted = np.asarray(solution.admitted, dtype=float)
        lam = ext.commodity_max_rates
        scale = np.maximum(1.0, lam)
        violation = np.maximum(admitted - lam, -admitted) / scale
        residual = max(0.0, float(violation.max())) if violation.size else 0.0
        detail = ""
        if residual > tol:
            j = int(violation.argmax())
            detail = (
                f"{ext.commodities[j].name!r} admits {admitted[j]:.4g} "
                f"of offered {lam[j]:.4g}"
            )
        return CheckResult(
            name="admission",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_dummy(self, flows: Optional[np.ndarray]) -> CheckResult:
        if flows is None:
            return _skip("dummy", "solution carries no flow representation")
        ext = self.ext
        tol = self.tolerances.dummy
        rows = np.arange(ext.num_commodities)
        input_flow = flows[rows, ext.commodity_input_edges]
        difference_flow = flows[rows, ext.commodity_difference_edges]
        lam = ext.commodity_max_rates
        gap = np.abs(input_flow + difference_flow - lam) / np.maximum(1.0, lam)
        residual = float(gap.max()) if gap.size else 0.0
        detail = ""
        if residual > tol:
            j = int(gap.argmax())
            detail = (
                f"{ext.commodities[j].name!r}: input {input_flow[j]:.4g} + "
                f"difference {difference_flow[j]:.4g} != lambda {lam[j]:.4g}"
            )
        return CheckResult(
            name="dummy",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_monotonicity(
        self, solution: Solution, utilities: Optional[Sequence[float]]
    ) -> CheckResult:
        if utilities is None or len(utilities) < 2:
            return _skip("monotonicity", "no iterate history")
        tol = self.tolerances.monotonicity
        u = np.asarray(utilities, dtype=float)
        drops = np.maximum(0.0, u[:-1] - u[1:])
        worst = int(drops.argmax())
        residual = float(drops[worst]) / max(1.0, abs(float(u[-1])))
        detail = ""
        if residual > tol:
            detail = (
                f"utility drops by {drops[worst]:.4g} between records "
                f"{worst} and {worst + 1}"
            )
        return CheckResult(
            name="monotonicity",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )

    def _check_duality_gap(self, solution: Solution) -> CheckResult:
        ext = self.ext
        tol = self.tolerances.for_check("duality_gap", solution.method)
        lam = ext.commodity_max_rates
        admitted = np.clip(np.asarray(solution.admitted, dtype=float), 0.0, lam)
        weights = np.array(
            [
                float(view.utility.derivative(float(admitted[view.index])))
                for view in ext.commodities
            ]
        )
        if not np.all(np.isfinite(weights)):
            return _skip("duality_gap", "non-finite marginal utility at a_j")
        from scipy.optimize import linprog

        if self._problem is None:
            from repro.core.optimal import build_arc_flow_problem

            self._problem = build_arc_flow_problem(ext)
        problem = self._problem
        objective = np.zeros(problem.num_vars)
        objective[problem.admitted_columns] = -weights  # linprog minimises
        lp = linprog(
            c=objective,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            bounds=(0, None),
            method="highs",
        )
        if not lp.success:
            return _skip("duality_gap", f"certificate LP failed: {lp.message}")
        best = np.minimum(np.asarray(lp.x)[problem.admitted_columns], lam)
        gap = float(weights @ (best - admitted))
        utility = float(
            sum(
                view.utility.value(float(admitted[view.index]))
                for view in ext.commodities
            )
        )
        residual = max(0.0, gap) / max(1.0, abs(utility))
        enforced = solution.method in EXACT_METHODS
        detail = "" if enforced else "informational for penalised methods"
        if residual > tol:
            detail = f"gap {gap:.4g} above utility {utility:.4g}"
        return CheckResult(
            name="duality_gap",
            passed=residual <= tol,
            residual=residual,
            tolerance=tol,
            detail=detail,
        )


def attach_validation(
    result: Any,
    ext: ExtendedNetwork,
    mode: Any = True,
    tolerances: Optional[Tolerances] = None,
    instrumentation=None,
) -> Optional[ValidationReport]:
    """Audit ``result`` and attach the report (the ``validate=`` plumbing).

    ``mode`` is the user-facing flag: ``False``/``None`` do nothing,
    ``True`` attaches the report to ``result.validation`` (and the
    solution's ``extras``), ``"strict"`` additionally raises
    :class:`~repro.exceptions.ValidationError` when any check fails.
    """
    if mode is False or mode is None:
        return None
    if mode not in (True, "strict"):
        raise ValueError(
            f"validate= must be False, True, or 'strict'; got {mode!r}"
        )
    checker = InvariantChecker(
        ext, tolerances=tolerances, instrumentation=instrumentation
    )
    report = checker.check_result(result)
    result.validation = report
    solution = getattr(result, "solution", None)
    if solution is not None:
        solution.extras["validation"] = report
    if mode == "strict":
        report.raise_for_failures()
    return report


# keep Tolerances fields and CHECK_NAMES in lockstep (import-time guard)
assert {f.name for f in fields(Tolerances)} == set(CHECK_NAMES) | {
    "duality_gap_iterative"
}
