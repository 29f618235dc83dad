"""Registry-driven NaN rejection (the value-domain policy of base.py).

NaN fails every ordered comparison, so a NaN that slipped into
``_observe`` would advance ``_count`` while leaving ``_min``/``_max``
untouched — rank/cdf bounds and serialization round-trips then disagree
about the stream.  The policy is: NaN raises
:class:`~repro.errors.InvalidValueError` from every ingestion path, and
a rejected update/batch leaves the sketch exactly as it was.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.base import QuantileSketch
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.core.serialization import dumps
from repro.errors import InvalidValueError
from repro.parallel import ShardedSketch
from tests.core.test_batch_properties import BUCKET_SKETCHES, bucket_totals

ALL_SKETCHES = sorted(SKETCH_CLASSES)

#: Valid for every sketch, DCS's bounded universe and HDR's positive
#: trackable range included.
FILL_VALUES = np.linspace(1.0, 50.0, 64)


def _filled(name):
    sketch = paper_config(name, seed=11)
    sketch.update_batch(FILL_VALUES)
    return sketch


def _state(sketch):
    return (sketch.count, sketch.min, sketch.max, sketch.quantile(0.5))


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_update_nan_raises_and_leaves_state_unchanged(name):
    sketch = _filled(name)
    before = _state(sketch)
    with pytest.raises(InvalidValueError):
        sketch.update(math.nan)
    assert _state(sketch) == before


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_batch_with_nan_raises_and_count_is_unchanged(name):
    sketch = _filled(name)
    before_count = sketch.count
    poisoned = np.array([7.0, math.nan, 9.0])
    with pytest.raises(InvalidValueError):
        sketch.update_batch(poisoned)
    assert sketch.count == before_count


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_update_nan_on_empty_sketch_stays_empty(name):
    sketch = paper_config(name, seed=11)
    with pytest.raises(InvalidValueError):
        sketch.update(math.nan)
    assert sketch.is_empty


def test_observe_helpers_reject_nan_before_mutating():
    # The bookkeeping backstop itself, independent of any concrete
    # sketch's own validation.
    class Minimal(QuantileSketch):
        name = "minimal"

        def update(self, value):
            self._observe(value)

        def merge(self, other):
            self._merge_bookkeeping(other)

        def quantile(self, q):
            self._require_nonempty()
            return self._min

        def size_bytes(self):
            return 0

    sketch = Minimal()
    with pytest.raises(InvalidValueError):
        sketch.update(math.nan)
    assert sketch.count == 0
    with pytest.raises(InvalidValueError):
        sketch._observe_batch(np.array([1.0, math.nan]))
    assert sketch.count == 0
    # ±inf orders correctly and is representable by the bookkeeping.
    sketch._observe(math.inf)
    assert sketch.count == 1 and sketch.max == math.inf


def test_sharded_sketch_rejects_nan_batches_atomically():
    sharded = ShardedSketch(
        lambda: paper_config("kll", seed=11), n_shards=4
    )
    sharded.update_batch(FILL_VALUES)
    before = (sharded.count, sharded.shard_counts())
    with pytest.raises(InvalidValueError):
        sharded.update_batch(np.array([1.0, math.nan, 2.0]))
    with pytest.raises(InvalidValueError):
        sharded.update(math.nan)
    assert (sharded.count, sharded.shard_counts()) == before


def test_sharded_sketch_rejects_inf_batches_atomically():
    """±inf is refused, like NaN, before the routing cursor moves or any
    shard is touched: before, ``[5.0, inf, 6.0, 7.0]`` on four shards
    reached shard 0 and moved the cursor while ``count`` stayed put."""
    sharded = ShardedSketch(
        lambda: paper_config("kll", seed=11), n_shards=4
    )
    sharded.update_batch([1.0, 2.0, 3.0, 4.0])

    def state():
        shard_bytes = [dumps(shard) for shard in sharded.shards]
        return shard_bytes, sharded._routed, sharded.count

    before = state()
    for poison in (math.inf, -math.inf):
        with pytest.raises(InvalidValueError):
            sharded.update_batch(np.array([5.0, poison, 6.0, 7.0]))
        with pytest.raises(InvalidValueError):
            sharded.update(poison)
    assert state() == before
    assert before[1:] == (4, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -1e300])
@pytest.mark.parametrize(
    "make", BUCKET_SKETCHES.values(), ids=list(BUCKET_SKETCHES)
)
def test_bucket_sketch_refuses_a_batch_before_either_store_moves(make, bad):
    """Before, ``[5.0, -1e300]`` put 5.0 in the positive store, then
    raised on the negative side: the store total reached 3 while
    ``count`` stayed 2, and the bytes changed."""
    sketch = make()
    sketch.update_batch([1.0, 2.0])
    before = dumps(sketch)
    for batch in ([5.0, bad], [bad, 5.0], [-5.0, bad], [0.0, 5.0, -5.0, bad]):
        with pytest.raises(InvalidValueError):
            sketch.update_batch(np.array(batch))
    with pytest.raises(InvalidValueError):
        sketch.update(bad)
    assert dumps(sketch) == before
    assert sketch.count == 2 == bucket_totals(sketch)
