"""Regression tests: merging with an empty sketch preserves bookkeeping.

The sharded subsystem routinely merges shards that happen to be empty
(a batch shorter than the shard count starves some shards; a window
can close before every shard saw data), so ``merge`` must treat an empty operand as a no-op
for ``min``/``max``/``count`` in either direction.  TDigest used to
crash outright on empty-into-empty (``_compress`` indexed into a
zero-length centroid array); this file pins the contract for every
registry sketch.
"""

import numpy as np
import pytest

from repro.core import paper_config
from repro.core.registry import SKETCH_CLASSES
from repro.errors import EmptySketchError

SEED = 1234


def build(name):
    """A paper-configured sketch; fixed seed so configs are mergeable."""
    return paper_config(name, seed=SEED)


@pytest.fixture
def data(rng):
    # Positive, bounded values acceptable to every sketch (HDR range,
    # DCS universe, Moments log transform).
    return np.clip(1.0 + rng.pareto(1.0, 2_000), None, 1e5)


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_merge_empty_into_nonempty(name, data):
    sketch = build(name)
    sketch.update_batch(data)
    before = (sketch.count, sketch.min, sketch.max)
    sketch.merge(build(name))
    assert (sketch.count, sketch.min, sketch.max) == before
    # the merged sketch still answers queries
    assert np.isfinite(sketch.quantile(0.5))


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_merge_nonempty_into_empty(name, data):
    source = build(name)
    source.update_batch(data)
    target = build(name)
    target.merge(source)
    assert target.count == source.count
    assert target.min == source.min
    assert target.max == source.max
    assert np.isfinite(target.quantile(0.5))


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_merge_empty_into_empty(name):
    target = build(name)
    target.merge(build(name))
    assert target.count == 0
    assert target.is_empty
    with pytest.raises(EmptySketchError):
        target.quantile(0.5)


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_empty_empty_merge_then_update(name):
    """The merged-empty sketch must still ingest correctly afterwards."""
    sketch = build(name)
    sketch.merge(build(name))
    sketch.update(5.0)
    sketch.update(2.0)
    assert sketch.count == 2
    assert sketch.min == 2.0
    assert sketch.max == 5.0
