"""Differential merge-equivalence harness.

The parallel subsystem is only admissible if shard-then-merge is
semantics-preserving: for every sketch in the registry, a
:class:`ShardedSketch` over *any* partition of a stream must answer
``quantile``/``rank``/``cdf``/``count`` within the sketch's documented
error bound of the sequentially-built sketch.  This file asserts that
for shard counts {1, 2, 7, 16}, for round-robin routing and for uneven
value-split shards adopted whole, for a set of adversarial hand-built
partitions (sorted, reversed, all-duplicates, single-element shards),
and for hypothesis-driven random splits.

Error accounting: rank-error sketches are judged on
:func:`repro.metrics.errors.rank_error` against the exact sorted data;
relative-value sketches (DDSketch family, HDR) on relative value error.
GK-style summaries sum their epsilons on merge (the classic
non-mergeability weakness), so their budget grows with shard count.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DDSketch, KLLSketch, paper_config
from repro.core.registry import SKETCH_CLASSES
from repro.errors import ReproError
from repro.metrics.errors import rank_error
from repro.parallel import ShardedSketch
from repro.core.base import QuantileSketch

SEED = 20230328
SHARD_COUNTS = (1, 2, 7, 16)
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

#: Budget per sketch: ``None`` holds it to its own ``guarantee()``;
#: a number (or a callable of the shard count) is an empirical
#: rank-error budget for a sketch whose guarantee cannot be asserted
#: here as stated.
BOUNDS: dict[str, object] = {
    "ddsketch": None,
    "uddsketch": None,
    "hdr": None,
    "exact": None,
    # a 99%-confidence bound, asserted per quantile in every cell
    "kll": 0.03,
    # guarantee() is none for these four: an empirical tripwire
    "req": 0.05,
    "moments": 0.10,
    "random": 0.15,
    "tdigest": 0.05,
    "dcs": 0.05,
    # merges grow GK's error past its one-stream epsilon (DESIGN §20)
    "gk": lambda k: 0.01 * (k + 1) + 0.01,
    "gkarray": lambda k: 0.01 * (k + 1) + 0.01,
}


def budget(
    name: str, sketch: QuantileSketch, n_shards: int
) -> tuple[str, float]:
    """``("rank", bound)`` caps rank_error vs. the exact data;
    ``("value", bound)`` caps relative value error."""
    bound = BOUNDS[name]
    if bound is not None:
        return "rank", float(bound(n_shards) if callable(bound) else bound)
    guarantee = sketch.guarantee()
    kind = "value" if guarantee.kind == "relative" else "rank"
    return kind, guarantee.eps + 1e-9


def make(name):
    return paper_config(name, dataset="pareto", seed=SEED)


def stream_for(name: str, size: int = 6_000) -> np.ndarray:
    """A positive, bounded Pareto stream every sketch can ingest.

    DCS floors values into its integer universe, so it (and its exact
    baseline) get pre-floored data — comparing an integer sketch
    against fractional ground truth would measure the flooring, not
    the sharding.
    """
    rng = np.random.default_rng(SEED)
    data = np.clip(1.0 + rng.pareto(1.0, size), None, 1e5)
    if name == "dcs":
        data = np.floor(data)
    return data


def assert_within_bound(
    name: str,
    sharded: QuantileSketch,
    sequential: QuantileSketch,
    data: np.ndarray,
    n_shards: int,
) -> None:
    """The differential check shared by every equivalence test."""
    assert sharded.count == sequential.count == data.size
    assert sharded.min == sequential.min
    assert sharded.max == sequential.max
    kind, bound = budget(name, sequential, n_shards)
    sorted_data = np.sort(data)
    for q in QUANTILES:
        est = sharded.quantile(q)
        seq_err: float
        if kind == "rank":
            err = rank_error(sorted_data, q, est)
            seq_err = rank_error(sorted_data, q, sequential.quantile(q))
        else:
            true = float(
                sorted_data[max(math.ceil(q * sorted_data.size), 1) - 1]
            )
            err = abs(est - true) / true
            seq_err = abs(sequential.quantile(q) - true) / true
        # Within the documented bound, or no worse than the sequential
        # build plus noise headroom (randomized sketches wobble).
        assert err <= max(bound, seq_err + bound), (
            f"{name}: q={q} err={err:.4f} bound={bound:.4f} "
            f"seq_err={seq_err:.4f} shards={n_shards}"
        )
    # rank/cdf agree with the quantile answers' accounting.
    mid = float(np.median(data))
    assert 0 <= sharded.rank(mid) <= data.size
    assert 0.0 <= sharded.cdf(mid) <= 1.0
    if kind == "rank":
        assert abs(
            sharded.cdf(mid) - sequential.cdf(mid)
        ) <= 2 * bound


def value_split(values: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard ids fixed by each value's bit pattern (two rounds of a
    multiplicative hash): uneven shards whose contents do not depend on
    arrival order."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    mixed = (values + 0.0).view(np.uint64) * golden
    mixed = (mixed ^ (mixed >> np.uint64(32))) * golden
    return ((mixed >> np.uint64(32)) % np.uint64(n_shards)).astype(np.int64)


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("split", ("round_robin", "hash"))
def test_sharded_matches_sequential(name, n_shards, split):
    data = stream_for(name)
    sequential = make(name)
    sequential.update_batch(data)
    factory = functools.partial(
        paper_config, name, dataset="pareto", seed=SEED
    )
    if split == "round_robin":
        sharded = ShardedSketch(factory, n_shards=n_shards)
        # Chunked ingestion, as a stream would arrive.
        for start in range(0, data.size, 1_000):
            sharded.update_batch(data[start : start + 1_000])
    else:
        # Value-split shards adopted whole: what a store snapshot whose
        # partitioner byte names the value-hash partitioner restores to.
        shards = [factory() for _ in range(n_shards)]
        for start in range(0, data.size, 1_000):
            chunk = data[start : start + 1_000]
            ids = value_split(chunk, n_shards)
            for shard_id, shard in enumerate(shards):
                part = chunk[ids == shard_id]
                if part.size:
                    shard.update_batch(part)
        sharded = ShardedSketch.from_shards(factory, shards)
    assert_within_bound(name, sharded, sequential, data, n_shards)


def merge_partition(name: str, parts: list[np.ndarray]) -> QuantileSketch:
    """Build one sketch per part and fold them together (shard-then-
    merge with a fully adversarial partition)."""
    shards = []
    for part in parts:
        shard = make(name)
        shard.update_batch(part)
        shards.append(shard)
    merged = make(name)
    for shard in shards:
        if not shard.is_empty:
            merged.merge(shard)
    return merged


def adversarial_partitions(data: np.ndarray) -> dict[str, list[np.ndarray]]:
    ordered = np.sort(data)
    k = 7
    return {
        # each shard gets a contiguous slab of the sorted stream —
        # maximally skewed value ranges per shard
        "sorted": np.array_split(ordered, k),
        "reversed": np.array_split(ordered[::-1], k),
        # one shard per element for the first 16 elements
        "single-element": [np.array([v]) for v in data[:16].tolist()],
    }


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_adversarial_partitions(name):
    data = stream_for(name, size=3_500)
    for label, parts in adversarial_partitions(data).items():
        flat = np.concatenate(parts)
        sequential = make(name)
        sequential.update_batch(flat)
        merged = merge_partition(name, list(parts))
        assert_within_bound(
            name, merged, sequential, flat, len(parts)
        )


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_all_duplicates_partition(name):
    """Every shard sees the same single value; behaviour (answer or a
    deliberate error, e.g. Moments' minimum-cardinality rule) must
    match the sequential build exactly."""
    value = 42.0
    parts = [np.full(50, value) for _ in range(7)]
    flat = np.concatenate(parts)
    sequential = make(name)
    sequential.update_batch(flat)
    merged = merge_partition(name, parts)
    assert merged.count == sequential.count == flat.size
    assert merged.min == sequential.min == value
    assert merged.max == sequential.max == value
    for q in (0.1, 0.5, 1.0):
        try:
            expected = sequential.quantile(q)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                merged.quantile(q)
        else:
            got = merged.quantile(q)
            rel = abs(got - expected) / value
            assert rel <= 0.011, (q, got, expected)


class TestRandomSplitsProperty:
    """Hypothesis: arbitrary chunk boundaries never break equivalence."""

    @given(
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=8, max_size=300,
        ),
        n_shards=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ddsketch_shard_merge_is_exact(self, values, n_shards):
        # DDSketch merge is bucket-count addition: shard-then-merge is
        # *identical* to sequential, not just within-bound.
        data = np.asarray(values)
        sequential = DDSketch(alpha=0.01)
        sequential.update_batch(data)
        sharded = ShardedSketch(lambda: DDSketch(alpha=0.01), n_shards)
        sharded.update_batch(data)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert sharded.quantile(q) == sequential.quantile(q)

    @given(
        # unique: rank error against a run of duplicates is ill-defined
        # (test_all_duplicates_partition covers that case separately).
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=16, max_size=400, unique=True,
        ),
        n_shards=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_kll_sharded_within_rank_bound(self, values, n_shards):
        data = np.asarray(values)
        sharded = ShardedSketch(
            lambda: KLLSketch(max_compactor_size=350, seed=7),
            n_shards=n_shards,
        )
        sharded.update_batch(data)
        sorted_data = np.sort(data)
        for q in (0.25, 0.5, 0.9):
            err = rank_error(sorted_data, q, sharded.quantile(q))
            # k=350 on <=400 items retains everything, so the only
            # slack needed is rank discretization (1/N on small N).
            assert err <= 0.03 + 1.0 / data.size
