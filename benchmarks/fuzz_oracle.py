"""Seed-matrixed differential fuzz sweep (CI smoke; pytest module).

Each seed builds a fresh random paper-style instance (the shared generator
in :mod:`repro.validate.strategies`, the same distribution the property
tests draw from) and cross-checks it two ways:

* **algorithm vs algorithm** -- the calibrated distributed gradient against
  the centralized concave optimum, agreeing within the oracle's utility
  tolerance (the eps-barrier keeps a few percent of headroom by design);
* **engine vs reference** -- the :class:`~repro.core.state.ModelState`
  engine against the paper-literal scalar walks, advanced in lockstep,
  which must agree *bit for bit* on every iterate
  (:meth:`~repro.validate.DifferentialOracle.compare_reference`).

The gradient-vs-optimum solutions are also run through the invariant
checker, so a fuzz seed that produces a conservation or capacity violation
fails loudly even when the two sides happen to agree with each other.

The seed matrix comes from ``FUZZ_SEEDS`` (comma- or space-separated;
default ``0,1,2,3,4``), which is how CI shards the sweep across jobs::

    FUZZ_SEEDS="0,1,2" python -m pytest benchmarks/fuzz_oracle.py -x -q
"""

from __future__ import annotations

import pytest

from repro.validate import (
    AlgorithmSpec,
    DifferentialOracle,
    calibrated_gradient_config,
)
from repro.validate.strategies import oracle_seed_matrix, small_random_spec
from repro.scenarios import random_stream_network

SEEDS = oracle_seed_matrix()


def _network(seed: int):
    return random_stream_network(small_random_spec(), seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_matches_concave_optimum(seed):
    report = DifferentialOracle(utility_rtol=0.1).compare(
        _network(seed),
        AlgorithmSpec(method="gradient", config=calibrated_gradient_config()),
        AlgorithmSpec(method="optimal"),
        validate=True,
    )
    assert report.passed, report.summary()
    assert report.validation_passed, report.summary()


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_scalar_reference(seed):
    report = DifferentialOracle().compare_reference(_network(seed), iterations=500)
    assert report.passed, report.summary()
    assert report.extras["diverged_at"] is None, report.summary()
