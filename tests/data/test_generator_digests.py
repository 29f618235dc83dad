"""The drifting and latency generators keep their bytes per seed.

Each digest is blake2b (16 bytes) of the float64 bytes of 10,000
values drawn at seed 2023. The accuracy experiments, the kurtosis
sweep, the workload scenarios and the TCP benchmark all draw from
these generators, so a changed digest moves every one of their
numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import DriftingPareto, DriftingUniform
from repro.data.traffic import LatencyValues

SEED = 2023
N = 10_000

DIGESTS = {
    "drifting_pareto": "af43671672a5d7b9dd403e669c02fd81",
    "drifting_uniform": "c3da7ddb9ef769047a54a65c2fb76e8b",
    "latency_values": "3f8a05901eda2ab74fa3eeff4a7bc5e4",
}

GENERATORS = {
    "drifting_pareto": DriftingPareto,
    "drifting_uniform": DriftingUniform,
    "latency_values": LatencyValues,
}


def _digest(name: str) -> str:
    values = GENERATORS[name]().sample(N, np.random.default_rng(SEED))
    assert values.dtype == np.float64 and values.shape == (N,)
    return hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_bytes_per_seed(name):
    assert _digest(name) == DIGESTS[name]
