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

import numpy as np
import pytest

from repro.core.base import QuantileSketch
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.core.serialization import dumps

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
