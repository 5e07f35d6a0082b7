"""Shared fixtures for the test suite, plus the hypothesis profiles.

Property tests run under one of two registered profiles, selected by the
``HYPOTHESIS_PROFILE`` environment variable (CI exports ``ci``):

``dev`` (default)
    20 examples per property, for fast local iteration.
``ci``
    100 examples per property, for the thorough sweep.

Both disable the per-example deadline: a single flow solve on a slow
shared runner can blow a wall-clock budget without anything being wrong.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import build_extended_network

settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.core.gradient import GradientConfig
from repro.core.marginals import CostModel
from repro.scenarios import (
    diamond_network,
    figure1_network,
    paper_figure4_network,
    random_stream_network,
)
from repro.scenarios import RandomNetworkSpec


@pytest.fixture(scope="session")
def diamond_ext():
    """Extended network of the 4-node diamond (hand-checkable optimum of 20)."""
    return build_extended_network(diamond_network())


@pytest.fixture(scope="session")
def figure1_ext():
    """Extended network of the paper's Figure-1 example."""
    return build_extended_network(figure1_network())


@pytest.fixture(scope="session")
def small_random_ext():
    """A small random instance (fast for marginal/optimality checks)."""
    spec = RandomNetworkSpec(
        num_nodes=14,
        num_commodities=2,
        depth_range=(3, 3),
        layer_width_range=(2, 3),
    )
    return build_extended_network(random_stream_network(spec, seed=3))


@pytest.fixture(scope="session")
def wide_random_ext():
    """A wide random instance: fan-in 11, fan-out 10, ``Gamma`` rows of 10.

    numpy's own reductions stop adding left to right at 8 terms, so the
    bit-identity tests need rows at least that wide; the other fixtures
    top out at fan-in 6.
    """
    spec = RandomNetworkSpec(
        num_nodes=60,
        num_commodities=3,
        depth_range=(3, 4),
        layer_width_range=(9, 10),
        extra_edge_probability=0.1,
    )
    return build_extended_network(random_stream_network(spec, seed=5))


@pytest.fixture(scope="session")
def figure4_ext():
    """The paper's Figure-4 workload (40 nodes, 3 commodities)."""
    return build_extended_network(paper_figure4_network(seed=7))


@pytest.fixture
def cost_model():
    return CostModel(eps=0.2)


@pytest.fixture
def fast_config():
    return GradientConfig(eta=0.05, max_iterations=2000)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
