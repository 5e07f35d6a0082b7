"""The curated public surface of the reproduction.

Import from here.  Everything in ``__all__`` is stable API: the network
builders, the solver entry point with its unified
:class:`~repro.options.SolveOptions`, and the commodity-major
:class:`~repro.core.state.ModelState`, the engine every gradient iteration
runs.
"""

from __future__ import annotations

from repro import (
    BackpressureConfig,
    GradientConfig,
    Instrumentation,
    build_extended_network,
    solve,
)
from repro.core import (
    ExtendedNetwork,
    RoutingState,
    Solution,
    StreamNetwork,
    build_solution,
    initial_routing,
)
from repro.core.state import ModelState
from repro.options import SolveOptions

__all__ = [
    # entry points
    "solve",
    "SolveOptions",
    # model construction
    "StreamNetwork",
    "ExtendedNetwork",
    "build_extended_network",
    "initial_routing",
    "RoutingState",
    "Solution",
    "build_solution",
    # the engine
    "ModelState",
    # configs / instrumentation
    "GradientConfig",
    "BackpressureConfig",
    "Instrumentation",
]
