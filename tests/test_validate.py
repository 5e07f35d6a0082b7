"""The validation subsystem: invariant checks, fault injection, the oracle.

Three angles, mirroring docs/validation.md:

* clean solutions from every method pass the whole catalog (and the
  duality-gap certificate is ~0 at the LP optimum);
* every injected fault class is caught by exactly the intended check
  (the matrix in :mod:`repro.validate.faults`);
* the wiring is free when off (``validate=False`` adds no flow solves,
  pinned the same way ``tests/test_obs.py`` pins instrumentation) and
  read-only when on (bit-identical iterates).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    GradientAlgorithm,
    GradientConfig,
    Instrumentation,
    ValidationError,
    build_extended_network,
    solve,
)
from repro.core.optimal import solve_lp
from repro.core.result import OptimalResult
from repro.io import result_to_dict
from repro.validate import (
    CHECK_NAMES,
    FAULT_NAMES,
    AlgorithmSpec,
    DifferentialOracle,
    InvariantChecker,
    Tolerances,
    attach_validation,
    calibrated_gradient_config,
    inject_fault,
    run_self_test,
)
from repro.validate.strategies import random_extended_network
from repro.scenarios import diamond_network, figure1_network

FAST_GRADIENT = GradientConfig(eta=0.04, max_iterations=1500, record_every=50)


# -- clean solutions pass the catalog ---------------------------------------------


class TestCleanSolutionsPass:
    @pytest.mark.parametrize("make_net", [figure1_network, diamond_network])
    def test_gradient_passes_all_checks(self, make_net):
        ext = build_extended_network(make_net())
        result = GradientAlgorithm(ext, FAST_GRADIENT).run()
        report = InvariantChecker(ext).check_result(result)
        assert report.passed, report.summary()
        # every named check was exercised (no silent skips besides none)
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert not any(c.skipped for c in report.checks)

    @pytest.mark.parametrize("make_net", [figure1_network, diamond_network])
    def test_lp_passes_with_tight_duality_gap(self, make_net):
        ext = build_extended_network(make_net())
        report = InvariantChecker(ext).check_result(
            OptimalResult(solution=solve_lp(ext))
        )
        assert report.passed, report.summary()
        gap = report.check("duality_gap")
        assert not gap.skipped
        assert gap.residual <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_lp_passes_on_random_instances(self, seed):
        ext = random_extended_network(seed)
        report = InvariantChecker(ext).check_result(
            OptimalResult(solution=solve_lp(ext))
        )
        assert report.passed, report.summary()
        assert report.check("duality_gap").residual <= 1e-6

    def test_backpressure_flow_checks_skip_but_rest_run(self, figure1_ext):
        from repro.core.backpressure import BackpressureAlgorithm, BackpressureConfig

        result = BackpressureAlgorithm(
            figure1_ext, BackpressureConfig(max_iterations=2000, record_every=200)
        ).run()
        report = InvariantChecker(figure1_ext).check_result(result)
        assert report.passed, report.summary()
        # no routing state: flow-level checks skip, rate-level checks run
        for name in ("routing", "conservation", "capacity", "dummy"):
            assert report.check(name).skipped
        for name in ("admission", "monotonicity"):
            assert not report.check(name).skipped


# -- fault injection: caught, and caught by the right check -----------------------


@pytest.fixture(scope="module")
def self_test_records():
    return {r.fault: r for r in run_self_test()}


class TestFaultMatrix:
    def test_covers_every_fault_class(self, self_test_records):
        assert set(self_test_records) == set(FAULT_NAMES)

    @pytest.mark.parametrize("fault", FAULT_NAMES)
    def test_fault_is_caught(self, self_test_records, fault):
        record = self_test_records[fault]
        assert record.caught, (
            f"{fault}: expected {record.expected_check}, flagged {record.flagged}"
        )

    @pytest.mark.parametrize("fault", FAULT_NAMES)
    def test_fault_is_isolated(self, self_test_records, fault):
        """Only the intended check fires: the catalog partition holds."""
        record = self_test_records[fault]
        assert record.isolated, (
            f"{fault}: flagged {record.flagged}, wanted only "
            f"({record.expected_check},)"
        )

    def test_inject_fault_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="unknown fault"):
            inject_fault("nope")


# -- strict mode ------------------------------------------------------------------


class TestStrictMode:
    def test_strict_raises_on_faulty_result(self):
        ext, result, expected = inject_fault("over_admission")
        with pytest.raises(ValidationError, match=expected):
            attach_validation(result, ext, mode="strict")
        # the report is still attached for post-mortem inspection
        assert result.validation is not None
        assert expected in result.validation.failed_names

    def test_strict_is_silent_on_clean_solve(self):
        result = solve(
            diamond_network(), method="optimal", full_result=True, validate="strict"
        )
        assert result.validation.passed

    def test_invalid_mode_rejected(self):
        ext, result, _ = inject_fault("over_admission")
        with pytest.raises(ValueError, match="validate="):
            attach_validation(result, ext, mode="loud")


# -- wiring through solve() and serialization -------------------------------------


class TestSolveWiring:
    def test_default_attaches_nothing(self, figure1_ext):
        result = solve(figure1_network(), config=FAST_GRADIENT, full_result=True)
        assert result.validation is None
        assert "validation" not in result_to_dict(result)

    @pytest.mark.parametrize("method", ["gradient", "optimal", "backpressure"])
    def test_validate_true_attaches_report(self, method):
        kwargs = {}
        if method == "gradient":
            kwargs["config"] = FAST_GRADIENT
        elif method == "backpressure":
            from repro import BackpressureConfig

            kwargs["config"] = BackpressureConfig(
                max_iterations=2000, record_every=200
            )
        result = solve(
            figure1_network(), method=method, full_result=True,
            validate=True, **kwargs
        )
        assert result.validation is not None
        assert result.validation.passed, result.validation.summary()
        assert result.solution.extras["validation"] is result.validation

    def test_report_round_trips_through_result_to_dict(self):
        result = solve(
            diamond_network(), method="optimal", full_result=True, validate=True
        )
        doc = result_to_dict(result, model="diamond")
        payload = json.loads(json.dumps(doc))  # must be JSON-safe end to end
        report = payload["validation"]
        assert report["schema"] == "repro.validation/1"
        assert report["passed"] is True
        assert report["method"] == result.solution.method
        assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
        for check in report["checks"]:
            # residual/tolerance are floats or null (non-finite mapped out)
            for key in ("residual", "tolerance"):
                assert check[key] is None or isinstance(check[key], float)

    def test_validate_false_adds_no_flow_solves(self, monkeypatch, figure1_ext):
        from repro.core.state import ModelState

        calls = {"n": 0}
        real = ModelState.forward_sweep

        def counting(state, phi):
            calls["n"] += 1
            return real(state, phi)

        # every flow solve -- the engine's and solve_traffic's -- is one
        # forward sweep
        monkeypatch.setattr(ModelState, "forward_sweep", counting)

        config = GradientConfig(eta=0.04, max_iterations=25, record_every=5)
        GradientAlgorithm(figure1_ext, config).run()
        bare = calls["n"]

        calls["n"] = 0
        GradientAlgorithm(figure1_ext, config).run(validate=False)
        assert calls["n"] == bare

    def test_validation_is_read_only(self, figure1_ext):
        """validate=True audits claimed quantities; the iterates are untouched."""
        config = GradientConfig(eta=0.04, max_iterations=200, record_every=20)
        bare = GradientAlgorithm(figure1_ext, config).run()
        audited = GradientAlgorithm(figure1_ext, config).run(validate=True)
        assert np.array_equal(
            bare.solution.routing.phi, audited.solution.routing.phi
        )
        assert bare.solution.utility == audited.solution.utility


# -- metrics counters -------------------------------------------------------------


class TestCounters:
    def test_checks_run_and_failed_counters(self):
        inst = Instrumentation()
        result = solve(
            diamond_network(), method="optimal", full_result=True,
            validate=True, instrumentation=inst,
        )
        assert result.validation.passed
        counters = inst.registry.as_dict()["counters"]
        assert counters["validate.checks_run"] > 0
        assert counters["validate.checks_failed"] == 0

    def test_failed_counter_increments_on_fault(self):
        ext, result, _ = inject_fault("over_admission")
        inst = Instrumentation()
        attach_validation(result, ext, mode=True, instrumentation=inst)
        counters = inst.registry.as_dict()["counters"]
        assert counters["validate.checks_failed"] >= 1


# -- checker configuration --------------------------------------------------------


class TestCheckerConfig:
    def test_unknown_check_name_rejected(self, diamond_ext):
        with pytest.raises(ValueError, match="unknown check"):
            InvariantChecker(diamond_ext, checks=["conservation", "vibes"])

    def test_check_subset_runs_only_those(self, diamond_ext):
        result = solve(diamond_network(), method="optimal", full_result=True)
        checker = InvariantChecker(diamond_ext, checks=["admission", "capacity"])
        report = checker.check_result(result)
        assert tuple(c.name for c in report.checks) == ("admission", "capacity")

    def test_duality_gap_informational_for_iterative_methods(self):
        tol = Tolerances()
        assert tol.for_check("duality_gap", "lp") == tol.duality_gap
        assert tol.for_check("duality_gap", "gradient") == float("inf")

    def test_report_check_lookup_rejects_unknown(self, diamond_ext):
        result = solve(diamond_network(), method="optimal", full_result=True)
        report = InvariantChecker(diamond_ext).check_result(result)
        with pytest.raises(KeyError):
            report.check("vibes")


# -- the differential oracle ------------------------------------------------------


class TestDifferentialOracle:
    def test_gradient_agrees_with_optimal(self):
        report = DifferentialOracle().compare(
            diamond_network(),
            AlgorithmSpec(
                method="gradient",
                config=calibrated_gradient_config(max_iterations=1500),
            ),
            AlgorithmSpec(method="optimal"),
        )
        assert report.passed, report.summary()
        assert report.utility_rel_diff <= 0.1

    def test_oracle_report_serializes(self):
        config = calibrated_gradient_config(max_iterations=100)
        report = DifferentialOracle().compare(
            diamond_network(),
            AlgorithmSpec(config=config),
            AlgorithmSpec(config=config, label="gradient[again]"),
            require_bit_identical=True,
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro.oracle/1"
        assert doc["passed"] is True
