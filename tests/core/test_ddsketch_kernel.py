"""DDSketch ingests a batch in one pass, at the same bytes.

``DDSketch.update_batch`` takes the batch's extremes once: they refuse a
non-finite value or one outside the indexable range before any store
moves, skip the sign split when every value is positive, and feed the
count/min/max bookkeeping.  The mapping indexes without re-checking,
and a dense store adds with one min/max and one ``bincount``.  The
kernel it replaced — a finiteness scan, the sign masks, the mapping's
own range checks, the stores' shifted copies and the bookkeeping's own
extremes — is kept below verbatim as the reference.  Both are compared by ``dumps`` over
the dense, collapsing and sparse stores and UDDSketch, on empty and
non-empty sketches, at the edges of the indexable range; where the
reference raises, the kernel must raise the same error with nothing
applied.  A call count holds the kernel to one pass: an all-positive
batch makes as many calls at 100,000 values as at 1,000.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch, dumps
from repro.core.base import (
    BATCH,
    _reject_nan_batch,
    as_float_batch,
    work_array,
)
from repro.core.mapping import (
    MAX_INDEXABLE_VALUE,
    MIN_INDEXABLE_VALUE,
    LogarithmicMapping,
)
from repro.core.store import (
    BucketStore,
    CollapsingLowestDenseStore,
    DenseStore,
)
from repro.errors import InvalidValueError, ReproError
from tests.core.test_collapse_levels import _collapse_if_needed as collapse_if_needed
from tests.service.test_wire_budget import count_calls


# -- the old kernel, as it was ---------------------------------------------


def reference_index_batch(
    self: LogarithmicMapping, values: np.ndarray
) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.size and (
        not np.isfinite(values).all()
        or (values < MIN_INDEXABLE_VALUE).any()
        or (values > MAX_INDEXABLE_VALUE).any()
    ):
        raise InvalidValueError(
            "batch contains values outside the indexable range"
        )
    return np.ceil(np.log(values) * self._multiplier).astype(np.int64)


def reference_dense_add_batch(self: DenseStore, indices: np.ndarray) -> None:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return
    lo = int(indices.min())
    hi = int(indices.max())
    self._extend_range(lo, hi)
    # After extension every index has a slot; bincount aggregates in C.
    shifted = indices - self._offset
    self._counts[: shifted.max() + 1] += np.bincount(
        shifted, minlength=int(shifted.max()) + 1
    )
    self._total += int(indices.size)


def reference_collapsing_add_batch(
    self: CollapsingLowestDenseStore, indices: np.ndarray
) -> None:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return
    self._extend_range(int(indices.min()), int(indices.max()))
    clipped = np.maximum(indices - self._offset, 0)
    self._counts[: clipped.max() + 1] += np.bincount(
        clipped, minlength=int(clipped.max()) + 1
    )
    self._total += int(indices.size)


def reference_add_batch(store: BucketStore, indices: np.ndarray) -> None:
    if isinstance(store, CollapsingLowestDenseStore):
        reference_collapsing_add_batch(store, indices)
    elif isinstance(store, DenseStore):
        reference_dense_add_batch(store, indices)
    else:
        store.add_batch(indices)  # the sparse store is unchanged


def reference_observe_batch(
    self: DDSketch, values: np.ndarray, checked: bool = False
) -> None:
    if values.size == 0:
        return
    if not checked:
        _reject_nan_batch(values)
    self._count += int(values.size)
    # argmin/argmax keep the *first* extreme, like the strict
    # comparisons here and in _observe; min()/max() would keep
    # the last of 0.0 and -0.0, which serialize differently.
    lo = float(values[values.argmin()])
    hi = float(values[values.argmax()])
    if lo < self._min:
        self._min = lo
    if hi > self._max:
        self._max = hi


def reference_ddsketch_update_batch(self: DDSketch, values) -> None:
    values = as_float_batch(values)
    if values.size == 0:
        return
    positive = values[values > MIN_INDEXABLE_VALUE]
    negative = values[values < -MIN_INDEXABLE_VALUE]
    n_zero = values.size - positive.size - negative.size
    # Index both signs before either store moves: a finite value
    # outside the indexable range raises here, with nothing applied.
    if negative.size:
        negative_indices = reference_index_batch(self._mapping, -negative)
    if positive.size:
        reference_add_batch(
            self._positive, reference_index_batch(self._mapping, positive)
        )
    if negative.size:
        reference_add_batch(self._negative, negative_indices)
    self._zero_count += int(n_zero)
    reference_observe_batch(self, values, checked=True)
    self._drop_query_caches()


def reference_update_batch(sketch: DDSketch, values) -> None:
    reference_ddsketch_update_batch(sketch, values)
    if isinstance(sketch, UDDSketch):
        collapse_if_needed(sketch)  # the one-level loop


# -- the grid --------------------------------------------------------------

SKETCHES = {
    "dense": lambda: DDSketch(store="dense"),
    "collapsing-2": lambda: DDSketch(store="collapsing", max_bins=2),
    "collapsing-1024": lambda: DDSketch(store="collapsing", max_bins=1024),
    "sparse": lambda: DDSketch(store="sparse"),
    "uddsketch": lambda: UDDSketch(),
}

SIZES = (0, 1, 2, 1_000, 65_536)

ABOVE_MIN = math.nextafter(MIN_INDEXABLE_VALUE, math.inf)
ABOVE_MAX = math.nextafter(MAX_INDEXABLE_VALUE, math.inf)


def batch(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pareto = 1.0 + rng.pareto(1.0, size)
    if kind == "positive":
        return pareto
    if kind == "mixed":
        return rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-4, 6, size)
    if kind == "zero_heavy":
        zeros = rng.choice((0.0, -0.0, MIN_INDEXABLE_VALUE, 1e-300), size)
        signed = pareto * rng.choice((-1.0, 1.0), size)
        return np.where(rng.random(size) < 0.6, zeros, signed)
    # An edge value at a random position among positive values (a
    # negative edge makes the batch mixed-sign).
    edge = {
        "min": MIN_INDEXABLE_VALUE,
        "above_min": ABOVE_MIN,
        "max": MAX_INDEXABLE_VALUE,
        "above_max": ABOVE_MAX,
        "-above_min": -ABOVE_MIN,
        "-max": -MAX_INDEXABLE_VALUE,
        "-above_max": -ABOVE_MAX,
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
    }[kind]
    if size:
        pareto[rng.integers(size)] = edge
    return pareto


KINDS = (
    "positive", "mixed", "zero_heavy",
    "min", "above_min", "max", "above_max",
    "-above_min", "-max", "-above_max", "nan", "inf", "-inf",
)

#: Batches whose order of ±0.0 decides the bytes of ``min``/``max``.
FIXED = (
    [0.0, -0.0], [-0.0, 0.0], [-0.0], [0.0, -0.0, 5.0], [5.0, -0.0, 0.0],
    [MIN_INDEXABLE_VALUE], [ABOVE_MIN], [-MIN_INDEXABLE_VALUE, ABOVE_MIN],
    [ABOVE_MIN, MAX_INDEXABLE_VALUE], [-MAX_INDEXABLE_VALUE, ABOVE_MIN],
    [ABOVE_MAX], [-ABOVE_MAX], [1.0, math.nan], [math.inf, 1.0],
)


def outcome(update, sketch: DDSketch, values: np.ndarray):
    """The bytes after *update*, or the error it raised with nothing
    applied."""
    before = dumps(sketch)
    try:
        update(sketch, values)
    except ReproError as error:
        assert dumps(sketch) == before
        return type(error), str(error)
    return dumps(sketch)


def assert_same(name: str, batches, prefill: bool) -> None:
    new, old = SKETCHES[name](), SKETCHES[name]()
    if prefill:
        warm = batch("mixed", 500, 7)
        new.update_batch(warm)
        reference_update_batch(old, warm)
        assert dumps(new) == dumps(old)
    for values in batches:
        values = np.asarray(values, dtype=np.float64)
        got = outcome(type(new).update_batch, new, values)
        assert got == outcome(reference_update_batch, old, values)


@pytest.mark.parametrize("prefill", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", SKETCHES)
def test_kernel_matches_the_old_kernel(name, kind, prefill):
    assert_same(
        name,
        [batch(kind, size, seed) for seed, size in enumerate(SIZES)],
        prefill,
    )


@pytest.mark.parametrize("prefill", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("name", SKETCHES)
def test_signed_zeros_and_range_edges_match_the_old_kernel(name, prefill):
    for values in FIXED:
        # each batch on its own sketch, so ±0.0 can set min and max
        assert_same(name, [values], prefill)
    # and all of them in turn on one sketch
    assert_same(name, FIXED, prefill)


# -- the count witness -----------------------------------------------------

#: Python and C calls of one all-positive ``update_batch`` into a fresh
#: dense DDSketch (ufuncs make no profiler event).  The old kernel
#: made 43, at every batch size.
KERNEL_CALLS = 26


def update_calls(n_values: int, warm: bool) -> int:
    values = 1.0 + np.random.default_rng(5).pareto(1.0, n_values)
    sketch = DDSketch()
    if warm:
        sketch.update_batch(values)
    return count_calls(lambda: sketch.update_batch(values))


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_all_positive_batch_costs_a_fixed_number_of_calls(warm):
    work_array(BATCH, 1)  # this thread's work arrays exist before counting
    calls = update_calls(1_000, warm)
    assert update_calls(100_000, warm) == calls
    assert calls <= KERNEL_CALLS
