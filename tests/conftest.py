"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import SCALES


@pytest.fixture
def lock_sanitizer():
    """Run the test under the runtime concurrency sanitizer.

    Every ``threading.Lock``/``RLock`` a ``repro.*`` module creates
    inside the test body is wrapped (build the system under test
    *inside* the test, not at import time), per-thread acquisition
    order is folded into a lock-order graph, and teardown fails the
    test on an ordering cycle or a watched-attribute race.
    """
    from repro.sanitizer import LockMonitor, instrumented

    monitor = LockMonitor()
    try:
        with instrumented(monitor):
            yield monitor
    finally:
        monitor.unwatch_all()
    monitor.verify()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests needing other seeds build their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def pareto_data(rng) -> np.ndarray:
    """50k samples of the paper's speed-test distribution Pareto(1, 1)."""
    return 1.0 + rng.pareto(1.0, 50_000)


@pytest.fixture
def uniform_data(rng) -> np.ndarray:
    """50k samples of U(30, 100) (the merge-workload uniform)."""
    return rng.uniform(30.0, 100.0, 50_000)


@pytest.fixture
def smoke_scale():
    """The CI-sized experiment scale."""
    return SCALES["smoke"]


def true_quantiles(values: np.ndarray, qs) -> dict[float, float]:
    """Exact rank-definition quantiles of *values* for each q."""
    import math

    s = np.sort(values)
    return {
        q: float(s[max(math.ceil(q * s.size), 1) - 1]) for q in qs
    }


def all_json_values(values) -> list:
    """*values* as an all-JSON body spells them: the list the wire
    carried before the float64 tail, non-finite floats as sentinels."""
    import math

    return [v if math.isfinite(v) else {"$float": str(v)} for v in values]
