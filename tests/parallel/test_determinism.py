"""Determinism of the parallel subsystem.

Round-robin routing is a function of arrival order alone, and every
randomized sketch in the registry draws from a seeded RNG, so a
:class:`ShardedSketch` fed the same chunked stream is a pure function
of (stream, chunking, seed, shard count): two runs must agree
bit-for-bit.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import paper_config
from repro.experiments.config import BASE_SEED
from repro.parallel import ShardedSketch

SEED = BASE_SEED
QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

#: Representative spread: randomized compactor (kll), deterministic
#: buckets (ddsketch), randomized samplers (random, dcs), moments.
DETERMINISM_SKETCHES = ("kll", "ddsketch", "random", "dcs", "req")


def factory(name):
    return functools.partial(
        paper_config, name, dataset="pareto", seed=SEED
    )


def stream(name: str, size: int = 30_000) -> list[np.ndarray]:
    rng = np.random.default_rng(SEED)
    data = np.clip(1.0 + rng.pareto(1.0, size), None, 1e5)
    if name == "dcs":
        data = np.floor(data)
    return [data[start : start + 2_500] for start in range(0, size, 2_500)]


def fingerprint(sketch) -> tuple[float, ...]:
    return (float(sketch.count), sketch.min, sketch.max) + tuple(
        sketch.quantile(q) for q in QUANTILES
    )


@pytest.mark.parametrize("name", DETERMINISM_SKETCHES)
def test_two_runs_bit_identical(name):
    """Same seed, same chunked stream: identical answers."""
    runs = []
    for _ in range(2):
        sharded = ShardedSketch(factory(name), n_shards=4)
        for batch in stream(name):
            sharded.update_batch(batch)
        runs.append(fingerprint(sharded))
    assert runs[0] == runs[1]


def test_round_robin_cursor_spans_batches():
    """The round-robin cursor continues across update_batch calls, so a
    chunked stream still balances shards exactly."""
    sharded = ShardedSketch(factory("kll"), n_shards=4)
    for size in (3, 5, 9, 7):  # deliberately not multiples of 4
        sharded.update_batch(np.arange(size, dtype=np.float64) + 1.0)
    counts = sharded.shard_counts()
    assert sum(counts) == 24
    assert max(counts) - min(counts) <= 1
