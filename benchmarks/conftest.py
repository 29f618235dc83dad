"""Shared fixtures and reporting helpers for the benchmark harness.

Every file regenerates one table or figure of the paper (see the
experiment index in DESIGN.md).  Scale is selected with ``REPRO_SCALE``
(``smoke`` | ``quick`` | ``paper``); the default ``quick`` preserves the
paper's shapes at a Python-friendly stream size.

Run everything with ``make paper-claims``, i.e.::

    REPRO_SCALE=smoke PYTHONPATH=src python -m pytest benchmarks/ \
        --benchmark-only --ignore=benchmarks/e2e
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import BASE_SEED, current_scale
from repro.experiments.speed import SPEED_DISTRIBUTION


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def speed_values(scale):
    """Pre-sampled Pareto(1, 1) stream for the Fig 5 speed benches."""
    rng = np.random.default_rng(BASE_SEED)
    return SPEED_DISTRIBUTION.sample(scale.speed_points, rng)


def emit(table: str) -> None:
    """Print a paper-style table into the benchmark output."""
    print()
    print(table)
