"""In-house convex-optimisation substrate (no external solver dependencies
beyond scipy's LP): Frank-Wolfe over a polytope."""

from repro.solver.frankwolfe import (
    FrankWolfeResult,
    Polytope,
    feasible_point,
    frank_wolfe,
)

__all__ = [
    "FrankWolfeResult",
    "Polytope",
    "feasible_point",
    "frank_wolfe",
]
