"""Shared fixtures for the benchmark/experiment harness.

Each ``bench_*.py`` file regenerates one table or figure from the paper (see
DESIGN.md's experiment index) and prints the paper-style rows.  Absolute
numbers depend on the host; the *shape* assertions (who wins, by what rough
factor, monotonicity) encode what the paper reports.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro import build_extended_network, solve_lp
from repro.scenarios import paper_figure4_network

FIGURE4_SEED = 7


@pytest.fixture(scope="session")
def figure4_ext():
    return build_extended_network(paper_figure4_network(seed=FIGURE4_SEED))


@pytest.fixture(scope="session")
def figure4_lp(figure4_ext):
    return solve_lp(figure4_ext)


def emit(title: str, body: str) -> None:
    """Print an experiment block and persist it under ``benchmarks/results/``.

    pytest captures stdout unless ``-s`` is given, so every block is also
    written to a file named after the experiment id (the leading token of
    the title) -- the regenerated paper tables survive any capture mode.
    """
    bar = "=" * 78
    block = f"{bar}\n{title}\n{bar}\n{body}\n"
    print("\n" + block)
    slug = title.split(":")[0].strip().lower().replace(" ", "-")
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{slug}.txt").write_text(block)


def host_context() -> dict:
    """The host a bench ran on, for the ``context`` of its BENCH_*.json."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
