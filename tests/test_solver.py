"""Tests for the in-house convex-solver substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import Polytope, feasible_point, frank_wolfe


def box_polytope(n, upper=1.0):
    return Polytope(a_ub=np.eye(n), b_ub=np.full(n, upper))


class TestPolytope:
    def test_linear_maximizer_on_box(self):
        poly = box_polytope(3, upper=2.0)
        x = poly.linear_maximizer(np.array([1.0, -1.0, 0.5]))
        np.testing.assert_allclose(x, [2.0, 0.0, 2.0], atol=1e-9)

    def test_feasible_point_is_feasible(self):
        poly = box_polytope(4)
        assert poly.contains(feasible_point(poly))

    def test_contains_rejects_violations(self):
        poly = box_polytope(2)
        assert not poly.contains(np.array([2.0, 0.0]))
        assert not poly.contains(np.array([-0.1, 0.0]))

    def test_requires_some_constraints(self):
        with pytest.raises(SolverError):
            Polytope()


class TestFrankWolfe:
    def test_concave_quadratic_on_box(self):
        """max -(x-0.3)^2 - (y-0.8)^2 over [0,1]^2 => (0.3, 0.8)."""
        target = np.array([0.3, 0.8])

        result = frank_wolfe(
            value=lambda x: -float(((x - target) ** 2).sum()),
            gradient=lambda x: -2.0 * (x - target),
            polytope=box_polytope(2),
            max_iterations=300,
            gap_tolerance=1e-7,
        )
        np.testing.assert_allclose(result.x, target, atol=1e-4)
        assert result.converged

    def test_corner_solution(self):
        result = frank_wolfe(
            value=lambda x: float(x.sum()),
            gradient=lambda x: np.ones_like(x),
            polytope=box_polytope(3),
            max_iterations=50,
        )
        np.testing.assert_allclose(result.x, np.ones(3), atol=1e-6)

    def test_gap_history_decreases(self):
        target = np.array([0.5, 0.5])
        result = frank_wolfe(
            value=lambda x: -float(((x - target) ** 2).sum()),
            gradient=lambda x: -2.0 * (x - target),
            polytope=box_polytope(2),
            max_iterations=100,
        )
        gaps = np.array(result.gap_history)
        assert gaps[-1] <= gaps[0] + 1e-12

    def test_rejects_infeasible_start(self):
        with pytest.raises(SolverError):
            frank_wolfe(
                value=lambda x: 0.0,
                gradient=lambda x: np.zeros(2),
                polytope=box_polytope(2),
                x0=np.array([5.0, 5.0]),
            )
