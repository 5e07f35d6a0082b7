"""``repro.validate`` -- invariant certificates and the differential oracle.

The subsystem that answers "is this solution actually correct?" with
numbers instead of vibes:

* :class:`InvariantChecker` audits any :class:`~repro.core.solution.Solution`
  or ``RunResult`` against the paper's invariant catalog (conservation,
  capacity, admission, dummy-link accounting, monotonicity, and a
  duality-gap optimality certificate) and returns a structured
  :class:`ValidationReport`;
* :class:`DifferentialOracle` runs two algorithms -- or serial vs parallel
  backends -- on the same workload and diffs the outcomes under tolerances;
* :mod:`repro.validate.faults` injects known faults and asserts the checker
  catches each one (the ``repro validate --self-test`` CLI);
* :mod:`repro.validate.strategies` is the shared generator layer for the
  property tests and the CI fuzz sweep.

Wired through the stack as ``solve(..., validate=True | "strict")``, the
``repro validate`` CLI subcommand, and ``--validate`` on ``solve`` /
``profile``.  See docs/validation.md.
"""

from repro.validate.checks import (
    CHECK_NAMES,
    CheckResult,
    InvariantChecker,
    Tolerances,
    ValidationReport,
    attach_validation,
    solution_flows,
)
from repro.validate.faults import (
    FAULT_NAMES,
    SelfTestRecord,
    inject_fault,
    run_self_test,
)
from repro.validate.oracle import (
    STALENESS_DRIFT_RTOL,
    AlgorithmSpec,
    DifferentialOracle,
    OracleReport,
    RebuildOracleReport,
    RebuildStepReport,
    calibrated_gradient_config,
)

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "InvariantChecker",
    "Tolerances",
    "ValidationReport",
    "attach_validation",
    "solution_flows",
    "FAULT_NAMES",
    "SelfTestRecord",
    "inject_fault",
    "run_self_test",
    "STALENESS_DRIFT_RTOL",
    "AlgorithmSpec",
    "DifferentialOracle",
    "OracleReport",
    "RebuildOracleReport",
    "RebuildStepReport",
    "calibrated_gradient_config",
]
