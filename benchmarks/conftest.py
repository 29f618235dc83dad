"""Shared fixtures and reporting helpers for the paper's figure index.

Every file regenerates one table or figure of the paper (see the
experiment index in DESIGN.md) by calling its ``repro.experiments``
runner and asserting the shape the paper reports; the files are plain
pytest tests with no timer of their own.  Scale is selected with
``REPRO_SCALE`` (``smoke`` | ``quick`` | ``paper``); the default
``quick`` preserves the paper's shapes at a Python-friendly stream size.

Run everything at smoke scale with ``make paper-claims``.
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
    """Pre-sampled Pareto(1, 1) stream for the batched-ingest check."""
    rng = np.random.default_rng(BASE_SEED)
    return SPEED_DISTRIBUTION.sample(scale.speed_points, rng)


def emit(table: str) -> None:
    """Print a paper-style table into the test output."""
    print()
    print(table)
