"""Hypothesis property tests for the batch-ingestion contract.

`tests/core/test_batch_equivalence.py` pins batch == scalar on fixed
seeded streams; these tests quantify over the contract itself:

* an empty batch is the identity — serialized bytes unchanged;
* a batch containing NaN is rejected **atomically** — the error is
  raised before any state mutates, so the bytes are unchanged no
  matter where in the batch the NaN sits;
* the ±inf policy of the batch path matches the scalar path (both
  raise :class:`~repro.errors.InvalidValueError`), and the rejection
  is likewise atomic — as it is for a finite value the bucket
  sketches cannot index (±1e300), whichever sign it carries;
* batch ingestion is concatenation-compatible:
  ``update_batch(a); update_batch(b)`` leaves the sketch in the same
  state as ``update_batch(a ++ b)``.

All properties are registry-driven and byte-level except for Moments,
whose power sums accumulate in a data-dependent addition order
(answer-level there, as in the equivalence battery).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DDSketch, UDDSketch
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.core.serialization import dumps
from repro.errors import InvalidValueError

SEED = 20230807

#: DDSketch in each store layout, and UDDSketch: each indexes its
#: positive and negative values into two stores, and refuses a finite
#: value past ``MAX_INDEXABLE_VALUE``.
BUCKET_SKETCHES = {
    "ddsketch-dense": lambda: DDSketch(store="dense"),
    "ddsketch-collapsing": lambda: DDSketch(store="collapsing", max_bins=64),
    "ddsketch-sparse": lambda: DDSketch(store="sparse"),
    "uddsketch": lambda: UDDSketch(max_buckets=64),
}

#: Compared by answers instead of bytes (float addition order differs
#: between ingestion schedules); see the equivalence battery.
ANSWER_LEVEL = frozenset({"moments"})

ALL_SKETCHES = sorted(SKETCH_CLASSES)

NAN = float("nan")
INF = float("inf")


def domain(name: str) -> st.SearchStrategy[float]:
    """Values in the domain sketch *name* accepts."""
    if name == "dcs":
        # DCS needs prior knowledge of the universe [0, 2^20).
        return st.integers(min_value=0, max_value=(1 << 20) - 1).map(float)
    if name == "hdr":
        # Non-negative, below the default highest trackable value.
        return st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        )
    return st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )


def batches(name: str, max_size: int = 120) -> st.SearchStrategy[list[float]]:
    return st.lists(domain(name), max_size=max_size)


#: Sketch-independent batches for properties pinned with ``@example``
#: (whose arguments cannot depend on the parametrised sketch name);
#: :func:`fit` folds them into the sketch's domain.
RAW_BATCHES = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    max_size=120,
)


def fit(name: str, batch: list[float]) -> list[float]:
    """*batch* folded into the domain sketch *name* accepts."""
    if name == "dcs":
        return [float(int(abs(value))) for value in batch]
    if name == "hdr":
        # Keeps the sign of -0.0, which hdr accepts.
        return [value if value >= 0 else -value for value in batch]
    return batch


def poison(batch: list[float], bad: float, index: int) -> list[float]:
    """*batch* with *bad* spliced in at a position derived from *index*."""
    cut = index % (len(batch) + 1)
    return batch[:cut] + [bad] + batch[cut:]


@pytest.mark.parametrize("name", ALL_SKETCHES)
class TestBatchProperties:
    @given(prefix=st.data())
    @settings(max_examples=20, deadline=None)
    def test_empty_batch_is_identity(self, name, prefix):
        sketch = paper_config(name, seed=SEED)
        sketch.update_batch(prefix.draw(batches(name)))
        before = dumps(sketch)
        count = sketch.count
        sketch.update_batch([])
        sketch.update_batch(np.zeros(0))
        sketch.update_batch(())
        assert sketch.count == count
        assert dumps(sketch) == before

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_nan_batch_rejected_atomically(self, name, data):
        sketch = paper_config(name, seed=SEED)
        sketch.update_batch(data.draw(batches(name)))
        before = dumps(sketch)
        count = sketch.count
        bad = poison(
            data.draw(batches(name)),
            NAN,
            data.draw(st.integers(min_value=0, max_value=1 << 16)),
        )
        with pytest.raises(InvalidValueError):
            sketch.update_batch(bad)
        assert sketch.count == count
        assert dumps(sketch) == before, (
            f"{name}: rejected batch left a partial prefix behind"
        )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_inf_policy_matches_scalar(self, name, data):
        sign = data.draw(st.sampled_from((INF, -INF)))
        scalar = paper_config(name, seed=SEED)
        with pytest.raises(InvalidValueError):
            scalar.update(sign)
        batched = paper_config(name, seed=SEED)
        batched.update_batch(data.draw(batches(name)))
        before = dumps(batched)
        count = batched.count
        bad = poison(
            data.draw(batches(name)),
            sign,
            data.draw(st.integers(min_value=0, max_value=1 << 16)),
        )
        with pytest.raises(InvalidValueError):
            batched.update_batch(bad)
        assert batched.count == count
        assert dumps(batched) == before

    @given(a=RAW_BATCHES, b=RAW_BATCHES)
    # 0.0 == -0.0 but their bytes differ: the recorded min/max must
    # not depend on where a batch boundary falls between them.
    @example(a=[0.0], b=[-0.0])
    @example(a=[-0.0], b=[0.0])
    @settings(max_examples=20, deadline=None)
    def test_batch_concat_compatible(self, name, a, b):
        a, b = fit(name, a), fit(name, b)
        split = paper_config(name, seed=SEED)
        split.update_batch(a)
        split.update_batch(b)
        joined = paper_config(name, seed=SEED)
        joined.update_batch(a + b)
        assert split.count == joined.count == len(a) + len(b)
        if name in ANSWER_LEVEL:
            # Moments: the power sums are mathematically equal but
            # accumulated in a different addition order, and the
            # max-entropy quantile solver amplifies ulp-level sum
            # differences.  Compare the sums themselves — state
            # equality modulo float associativity.
            np.testing.assert_allclose(
                split._power_sums, joined._power_sums, rtol=1e-9, atol=1e-9
            )
            if split.count:
                assert split.min == joined.min
                assert split.max == joined.max
        else:
            assert dumps(split) == dumps(joined), (
                f"{name}: update_batch(a);update_batch(b) != "
                f"update_batch(a ++ b)"
            )


def bucket_totals(sketch) -> int:
    return sketch._positive.total + sketch._negative.total + sketch._zero_count


@pytest.mark.parametrize(
    "make", BUCKET_SKETCHES.values(), ids=list(BUCKET_SKETCHES)
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_unindexable_batch_rejected_atomically(make, data):
    """A batch with NaN, ±inf or a finite value past the indexable
    range leaves a bucket sketch as it was: both signs are indexed
    before either store moves."""
    sketch = make()
    sketch.update_batch(data.draw(batches("ddsketch")))
    before = dumps(sketch)
    count = sketch.count
    bad = poison(
        data.draw(batches("ddsketch")),
        data.draw(st.sampled_from((NAN, INF, -INF, 1e300, -1e300))),
        data.draw(st.integers(min_value=0, max_value=1 << 16)),
    )
    with pytest.raises(InvalidValueError):
        sketch.update_batch(bad)
    assert sketch.count == count == bucket_totals(sketch)
    assert dumps(sketch) == before
