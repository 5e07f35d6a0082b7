"""Known-fault injection: the checker's self-test.

A validation subsystem that silently passes everything is worse than none,
so this module manufactures solutions with one *specific* defect each and
asserts the checker flags exactly the intended check.  The fault classes
cover the whole catalog:

=====================  ===============  =========================================
fault                  intended check   how it is injected
=====================  ===============  =========================================
``perturbed_flow``     conservation     scale the cached traffic at one interior
                                        node, breaking eq. (7) there
``overfilled_node``    capacity         route a congested diamond uniformly, so
                                        half the offered load hits 3-unit nodes
``broken_dummy_link``  dummy            bump the difference-link arc flow, so
                                        input + difference != lambda
``over_admission``     admission        claim admitted rates above the offer
``invalid_routing``    routing          drive one routing fraction negative
                                        (row sums kept at one)
``utility_regression`` monotonicity     rewrite one history record's utility
                                        to dip mid-run
``suboptimal_opt``     duality_gap      label the shed-everything start as an
                                        exact method, so the certificate must
                                        reject its huge gap
=====================  ===============  =========================================

Each fault is *isolated*: the doctored artifact stays consistent under
every other check, which pins the catalog's partition of responsibilities
(e.g. conservation excludes dummy sources precisely so dummy-link damage
is the dummy check's alone).  ``tests/test_validate.py`` asserts both
directions -- caught by the intended check, silent everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.gradient import GradientAlgorithm, GradientConfig, GradientResult
from repro.core.marginals import CostModel
from repro.core.optimal import solve_lp
from repro.core.result import OptimalResult
from repro.core.routing import initial_routing, uniform_routing
from repro.core.solution import Solution, build_solution
from repro.core.transform import ExtendedNetwork, build_extended_network
from repro.validate.checks import InvariantChecker, Tolerances
from repro.scenarios import diamond_network

__all__ = ["FAULT_NAMES", "SelfTestRecord", "inject_fault", "run_self_test"]


def _copy_solution(solution: Solution) -> Solution:
    return replace(solution, extras=dict(solution.extras))


def _wrap(solution: Solution) -> OptimalResult:
    """Dress a lone solution as a RunResult (single-point history)."""
    return OptimalResult(solution=solution)


@dataclass
class _Baseline:
    """Clean artifacts the injectors doctor."""

    ext: ExtendedNetwork
    congested_ext: ExtendedNetwork
    relaxed_ext: ExtendedNetwork
    gradient: GradientResult
    lp: OptimalResult


def _build_baseline() -> _Baseline:
    ext = build_extended_network(diamond_network())
    congested_ext = build_extended_network(
        diamond_network(
            top_capacity=3.0,
            bottom_capacity=3.0,
            source_capacity=100.0,
            max_rate=30.0,
        )
    )
    relaxed_ext = build_extended_network(
        diamond_network(
            top_capacity=1000.0,
            bottom_capacity=1000.0,
            source_capacity=1000.0,
            bandwidth=1000.0,
            max_rate=30.0,
        )
    )
    gradient = GradientAlgorithm(
        ext, GradientConfig(eta=0.05, max_iterations=400, record_every=20)
    ).run()
    lp = _wrap(solve_lp(ext))
    return _Baseline(
        ext=ext,
        congested_ext=congested_ext,
        relaxed_ext=relaxed_ext,
        gradient=gradient,
        lp=lp,
    )


# -- the injectors (each returns (ext, doctored RunResult)) ------------------------


def _perturbed_flow(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.ext
    solution = _copy_solution(base.gradient.solution)
    traffic = np.array(solution.extras["traffic"], dtype=float)
    usage = np.asarray(solution.extras["node_usage"], dtype=float)
    view = ext.commodities[0]
    # an interior node with traffic *and* capacity headroom, so the scaled
    # flow breaks conservation without also tripping the capacity check
    node = next(
        n
        for n in view.node_indices
        if n not in (view.dummy, view.sink)
        and traffic[0, n] > 1e-6
        and (not np.isfinite(ext.capacity[n]) or usage[n] * 1.6 < ext.capacity[n])
    )
    traffic[0, node] *= 1.5
    solution.extras["traffic"] = traffic
    return ext, _wrap(solution)


def _overfilled_node(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.congested_ext
    # uniform routing admits half of the 30-unit offer into 3-unit nodes:
    # a genuinely capacity-violating but otherwise self-consistent solution
    solution = build_solution(
        ext, uniform_routing(ext), CostModel(), method="uniform"
    )
    return ext, _wrap(solution)


def _broken_dummy_link(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.ext
    solution = _copy_solution(base.lp.solution)
    flows = np.array(solution.extras["arc_flows"], dtype=float)
    view = ext.commodities[0]
    # additive bump so the fault fires even at full admission (diff flow 0);
    # the difference link ends at the sink, so conservation stays silent
    flows[0, view.difference_edge] += 0.25 * view.max_rate
    solution.extras["arc_flows"] = flows
    return ext, _wrap(solution)


def _over_admission(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.ext
    solution = _copy_solution(base.gradient.solution)
    solution.admitted = ext.commodity_max_rates * 1.05
    return ext, _wrap(solution)


def _invalid_routing(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    # a roomy instance: moving mass between the paths cannot overfill
    # anything, so the negative fraction is the only defect
    ext = base.relaxed_ext
    routing = uniform_routing(ext)
    view = ext.commodities[0]
    node = next(
        n
        for n in view.node_indices
        if n not in (view.sink, view.dummy)
        and len(ext.commodity_out_edges[0][n]) >= 2
    )
    first, second = ext.commodity_out_edges[0][node][:2]
    # move mass so one fraction goes negative while the row still sums to 1
    shift = float(routing.phi[0, first]) + 0.02
    routing.phi[0, first] -= shift
    routing.phi[0, second] += shift
    # build_solution re-solves the flow balance under the doctored phi, so
    # the stored flows stay self-consistent and only the negativity is wrong
    solution = build_solution(ext, routing, CostModel(), method="doctored")
    return ext, _wrap(solution)


def _utility_regression(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.ext
    history = list(base.gradient.history)
    mid = len(history) // 2
    final = abs(history[-1].utility)
    history[mid] = replace(
        history[mid], utility=history[mid].utility - max(1.0, 0.1 * final)
    )
    result = GradientResult(
        solution=base.gradient.solution,
        history=history,
        converged=base.gradient.converged,
        iterations=base.gradient.iterations,
    )
    return ext, result


def _suboptimal_opt(base: _Baseline) -> Tuple[ExtendedNetwork, Any]:
    ext = base.ext
    # shed-everything is perfectly consistent -- but claiming it as an exact
    # optimum must trip the duality-gap certificate
    solution = build_solution(
        ext, initial_routing(ext), CostModel(), method="lp"
    )
    return ext, _wrap(solution)


_INJECTORS: Dict[str, Tuple[str, Callable[[_Baseline], Tuple[ExtendedNetwork, Any]]]]
_INJECTORS = {
    "perturbed_flow": ("conservation", _perturbed_flow),
    "overfilled_node": ("capacity", _overfilled_node),
    "broken_dummy_link": ("dummy", _broken_dummy_link),
    "over_admission": ("admission", _over_admission),
    "invalid_routing": ("routing", _invalid_routing),
    "utility_regression": ("monotonicity", _utility_regression),
    "suboptimal_opt": ("duality_gap", _suboptimal_opt),
}

FAULT_NAMES = tuple(_INJECTORS)


@dataclass(frozen=True)
class SelfTestRecord:
    """One fault class run through the checker."""

    fault: str
    expected_check: str
    flagged: Tuple[str, ...]

    @property
    def caught(self) -> bool:
        """The intended check fired."""
        return self.expected_check in self.flagged

    @property
    def isolated(self) -> bool:
        """Only the intended check fired (the designed partition holds)."""
        return self.flagged == (self.expected_check,)


def inject_fault(
    name: str, baseline: Optional[_Baseline] = None
) -> Tuple[ExtendedNetwork, Any, str]:
    """Build the doctored RunResult for one fault class.

    Returns ``(ext, result, expected_check)``.  Reuse ``baseline`` (from a
    prior call's internals) when injecting several faults to avoid
    re-running the clean gradient solve each time.
    """
    try:
        expected, injector = _INJECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault {name!r}; expected one of {FAULT_NAMES}"
        ) from None
    if baseline is None:
        baseline = _build_baseline()
    ext, result = injector(baseline)
    return ext, result, expected


def run_self_test(
    tolerances: Optional[Tolerances] = None, instrumentation=None
) -> List[SelfTestRecord]:
    """Inject every known fault class and record what the checker flagged.

    The subsystem is healthy iff every record is ``caught`` (CLI:
    ``python -m repro validate --self-test``).
    """
    baseline = _build_baseline()
    records: List[SelfTestRecord] = []
    for name in FAULT_NAMES:
        ext, result, expected = inject_fault(name, baseline)
        checker = InvariantChecker(
            ext, tolerances=tolerances, instrumentation=instrumentation
        )
        report = checker.check_result(result)
        records.append(
            SelfTestRecord(
                fault=name,
                expected_check=expected,
                flagged=report.failed_names,
            )
        )
    return records
