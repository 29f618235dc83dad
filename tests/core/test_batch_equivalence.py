"""Differential ingest-equivalence battery: batch == scalar, proven.

Every registry sketch now overrides ``update_batch`` with a vectorised
fast path.  These tests pin the contract that makes those rewrites
safe: for any stream and any chunking, batch ingestion must be
indistinguishable from the per-item ``update`` loop —

* **byte-level** for every sketch whose state is a deterministic
  function of the (seeded) input stream: the serialized bytes of the
  scalar-fed and batch-fed sketches are identical, so compaction
  schedules, RNG draw sequences, tuple deltas and buffer phases all
  replayed exactly;
* **answer-level** for Moments, whose floating power sums are
  accumulated in a different addition order by the two paths (the sums
  are mathematically equal; the bits are not).

The battery is registry-driven: adding a sketch to ``SKETCH_CLASSES``
automatically enrolls it here.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.base import (
    FIRST_COIN_BLOCK,
    SCALAR_COINS,
    CoinFlips,
    QuantileSketch,
)
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.core.serialization import dumps
from repro.errors import InvalidValueError

SEED = 20230807
QS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

#: Sketches compared by answers instead of bytes: Moments accumulates
#: floating power sums whose addition order differs between the scalar
#: and vectorised paths.
ANSWER_LEVEL = frozenset({"moments"})

BATCH_SIZES = (1, 7, 1024)
LARGE_SIZE = 100_000

ALL_SKETCHES = sorted(SKETCH_CLASSES)


def dataset(name: str, size: int, seed: int = SEED) -> np.ndarray:
    """A stream in the value domain sketch *name* accepts."""
    rng = np.random.default_rng(seed)
    if name == "hdr":
        # Non-negative, below the default highest trackable value.
        return rng.uniform(0.0, 1e6, size)
    if name == "dcs":
        # DCS needs prior knowledge of the universe [0, 2^20).
        return rng.integers(0, 1 << 20, size).astype(np.float64)
    return rng.normal(loc=100.0, scale=25.0, size=size)


def scalar_ingest(sketch: QuantileSketch, values: np.ndarray) -> None:
    for value in values.tolist():
        sketch.update(value)


def batch_ingest(
    sketch: QuantileSketch, values: np.ndarray, batch_size: int
) -> None:
    for pos in range(0, values.size, batch_size):
        sketch.update_batch(values[pos : pos + batch_size])


def assert_equivalent(
    name: str, scalar: QuantileSketch, batched: QuantileSketch
) -> None:
    assert scalar.count == batched.count
    assert scalar.min == batched.min
    assert scalar.max == batched.max
    if name in ANSWER_LEVEL:
        for q in QS:
            assert batched.quantile(q) == pytest.approx(
                scalar.quantile(q), rel=1e-9, abs=1e-9
            )
    else:
        assert dumps(scalar) == dumps(batched), (
            f"{name}: batch-fed state diverged from scalar-fed state"
        )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_batch_matches_scalar(name: str, batch_size: int) -> None:
    data = dataset(name, 4000)
    scalar = paper_config(name, seed=SEED)
    batched = paper_config(name, seed=SEED)
    scalar_ingest(scalar, data)
    batch_ingest(batched, data, batch_size)
    assert_equivalent(name, scalar, batched)


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_ragged_chunk_boundaries(name: str) -> None:
    """Chunk sizes crossing every internal boundary (buffer fills,
    compaction triggers, collapse points) must not change the state."""
    data = dataset(name, 8000)
    scalar = paper_config(name, seed=SEED)
    batched = paper_config(name, seed=SEED)
    scalar_ingest(scalar, data)
    pos = 0
    for size in (1, 7, 0, 349, 350, 351, 1024, 2048, 100_000):
        batched.update_batch(data[pos : pos + size])
        pos += size
        if pos >= data.size:
            break
    batched.update_batch(data[pos:])
    assert_equivalent(name, scalar, batched)


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_empty_batches_are_noops(name: str) -> None:
    """Batch size 0: empty batches sprinkled through the stream leave
    no trace — including zero-length numpy arrays and empty lists."""
    data = dataset(name, 2000)
    scalar = paper_config(name, seed=SEED)
    batched = paper_config(name, seed=SEED)
    scalar_ingest(scalar, data)
    batched.update_batch([])
    for pos in range(0, data.size, 500):
        batched.update_batch(data[pos : pos + 500])
        batched.update_batch(np.zeros(0))
    assert_equivalent(name, scalar, batched)


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_batch_matches_scalar_large(name: str) -> None:
    """The 10^5-value case: one monolithic batch, deep into every
    sketch's compaction/collapse regime."""
    data = dataset(name, LARGE_SIZE)
    scalar = paper_config(name, seed=SEED)
    batched = paper_config(name, seed=SEED)
    scalar_ingest(scalar, data)
    batched.update_batch(data)
    assert_equivalent(name, scalar, batched)


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_mixed_scalar_and_batch_bookkeeping(name: str) -> None:
    """Regression: ``_count``/``_min``/``_max`` are maintained exactly
    once per value when scalar and batch ingestion interleave (the old
    default path re-validated and re-counted inside ``_observe``)."""
    data = dataset(name, 900)
    sketch = paper_config(name, seed=SEED)
    scalar_ingest(sketch, data[:300])
    sketch.update_batch(data[300:700])
    scalar_ingest(sketch, data[700:])
    assert sketch.count == data.size
    assert sketch.min == float(data.min())
    assert sketch.max == float(data.max())


@pytest.mark.parametrize("zeros", ([0.0, -0.0], [-0.0, 0.0]))
@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_signed_zeros_first_seen_wins(name: str, zeros: list[float]) -> None:
    """0.0 and -0.0 compare equal, so the recorded min/max keep the
    first one seen — identically for scalar, one-batch and split-batch
    ingestion (``ndarray.min()`` would keep the last)."""
    scalar = paper_config(name, seed=SEED)
    scalar_ingest(scalar, np.asarray(zeros))
    joined = paper_config(name, seed=SEED)
    joined.update_batch(zeros)
    split = paper_config(name, seed=SEED)
    batch_ingest(split, np.asarray(zeros), 1)
    assert dumps(scalar) == dumps(joined) == dumps(split)


# -- compaction coins drawn in blocks (KLL and REQ) ----------------------

#: Coins flipped by one call: around the scalar -> block switch, around
#: the first two block boundaries, and across several blocks.
BOUNDARY_COINS = (
    SCALAR_COINS - 1, SCALAR_COINS, SCALAR_COINS + 1,
    SCALAR_COINS + FIRST_COIN_BLOCK - 1,
    SCALAR_COINS + FIRST_COIN_BLOCK,
    SCALAR_COINS + FIRST_COIN_BLOCK + 1,
    SCALAR_COINS + 2 * FIRST_COIN_BLOCK - 1,
    SCALAR_COINS + 2 * FIRST_COIN_BLOCK + 1,
    1_000,
)
COIN_SKETCHES = ("kll", "req")


class CountingRng:
    """A generator proxy counting ``integers`` calls and how many of
    them drew a single value."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.calls = 0
        self.scalar_calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        self.scalar_calls += kwargs.get("size") is None
        return self._rng.integers(*args, **kwargs)


def _filled(name: str, size: int = 20_000) -> QuantileSketch:
    sketch = paper_config(name, seed=SEED)
    sketch.update_batch(dataset(name, size))
    return sketch


@functools.lru_cache(maxsize=None)
def _coin_trace(name: str) -> tuple[np.ndarray, list[int]]:
    """A stream after ``_filled(name)`` and the coins flipped after each
    of its values, fed one scalar ``update`` (and one coin) at a time."""
    data = dataset(name, 60_000, seed=SEED + 1)
    probe = _filled(name)
    probe._rng = CountingRng(probe._rng)
    flipped = []
    for value in data.tolist():
        probe.update(value)
        flipped.append(probe._rng.calls)
    assert probe._rng.calls == probe._rng.scalar_calls
    return data, flipped


def _batch_flipping(name: str, coins: int) -> tuple[int, int]:
    """``(prefix, size)``: after *prefix* values, the next *size* values
    flip exactly *coins* coins (a REQ cascade can flip two per value, so
    the prefix moves the start until the count lands exactly)."""
    _, flipped = _coin_trace(name)
    first_at = {}
    for index, count in enumerate(flipped):
        first_at.setdefault(count, index)
    for prefix in range(len(flipped)):
        start = flipped[prefix - 1] if prefix else 0
        end = first_at.get(start + coins)
        if end is not None and end >= prefix:
            return prefix, end + 1 - prefix
    raise AssertionError(f"{name}: no batch flips exactly {coins} coins")


@pytest.mark.parametrize("coins", BOUNDARY_COINS)
def test_coin_flips_equal_scalar_draws(coins: int) -> None:
    for seed in range(3):
        reference = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        # one draw first, so half a uint64 sits buffered in the state
        reference.integers(2)
        rng.integers(2)
        expected = [int(reference.integers(2)) for _ in range(coins)]
        with CoinFlips(rng) as flip:
            drawn = [flip() for _ in range(coins)]
        assert drawn == expected
        assert rng.bit_generator.state == reference.bit_generator.state


def test_coin_flips_settle_the_generator_on_exception() -> None:
    coins = SCALAR_COINS + FIRST_COIN_BLOCK + 5
    reference = np.random.default_rng(3)
    rng = np.random.default_rng(3)
    reference.integers(2, size=coins)
    with pytest.raises(RuntimeError):
        with CoinFlips(rng) as flip:
            for _ in range(coins):
                flip()
            raise RuntimeError("compaction failed")
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("coins", BOUNDARY_COINS)
@pytest.mark.parametrize("name", COIN_SKETCHES)
def test_batch_at_coin_block_boundaries_matches_scalar(
    name: str, coins: int
) -> None:
    data, _ = _coin_trace(name)
    prefix, size = _batch_flipping(name, coins)
    scalar = _filled(name)
    batched = _filled(name)
    scalar_ingest(scalar, data[: prefix + size])
    scalar_ingest(batched, data[:prefix])
    batched.update_batch(data[prefix : prefix + size])
    assert_equivalent(name, scalar, batched)


@pytest.mark.parametrize("name", COIN_SKETCHES)
def test_refused_batch_leaves_the_generator_untouched(name: str) -> None:
    sketch = _filled(name)
    state = sketch._rng.bit_generator.state
    before = dumps(sketch)
    poisoned = dataset(name, 70_000, seed=SEED + 2)
    poisoned[-1] = np.inf
    with pytest.raises(InvalidValueError):
        sketch.update_batch(poisoned)
    assert sketch._rng.bit_generator.state == state
    assert dumps(sketch) == before


def test_large_batch_draws_its_coins_in_blocks() -> None:
    """Noise-free count: one 65,536-value batch into a filled KLL."""
    data = dataset("kll", 65_536, seed=SEED + 3)
    batched = _filled("kll", 200_000)
    scalar = batched.copy()
    batched._rng = CountingRng(batched._rng)
    scalar._rng = CountingRng(scalar._rng)
    batched.update_batch(data)
    scalar_ingest(scalar, data)
    # one generator call per coin on the scalar path, as before blocks
    assert scalar._rng.calls == scalar._rng.scalar_calls > 4_000
    assert batched._rng.calls <= 32
    assert dumps(batched) == dumps(scalar)


@pytest.mark.parametrize("name", COIN_SKETCHES)
def test_short_calls_stay_on_scalar_coins(name: str) -> None:
    """A 64-value batch and a merge flip a handful of coins: one scalar
    generator call each, as many calls as one draw per coin makes."""
    data = dataset(name, 64, seed=SEED + 4)
    batched = _filled(name)
    scalar = batched.copy()
    batched._rng = CountingRng(batched._rng)
    scalar._rng = CountingRng(scalar._rng)
    batched.update_batch(data)
    scalar_ingest(scalar, data)
    assert batched._rng.calls == batched._rng.scalar_calls
    assert batched._rng.calls == scalar._rng.calls
    target = _filled(name)
    target._rng = CountingRng(target._rng)
    target.merge(_filled(name, 5_000))
    assert 0 < target._rng.calls == target._rng.scalar_calls <= SCALAR_COINS
