"""Unit tests for window aggregate functions."""

import numpy as np

from repro.core import DDSketch
from repro.streaming.operators import (
    CollectingAggregator,
    CountAggregator,
    SketchAggregator,
)


class TestSketchAggregator:
    def test_lifecycle(self, rng):
        agg = SketchAggregator(
            lambda: DDSketch(alpha=0.01), quantiles=(0.5, 0.99)
        )
        acc = agg.create_accumulator()
        assert acc.is_empty
        acc = agg.add_batch(acc, rng.uniform(1, 10, 100))
        assert acc.count == 100
        result = agg.get_result(acc)
        assert set(result) == {0.5, 0.99}
        assert result[0.5] <= result[0.99]

    def test_each_accumulator_is_fresh(self):
        agg = SketchAggregator(DDSketch, quantiles=(0.5,))
        a = agg.create_accumulator()
        b = agg.create_accumulator()
        agg.add_batch(a, np.asarray([1.0]))
        assert b.is_empty

    def test_add_batch_vectorised(self, rng):
        agg = SketchAggregator(DDSketch, quantiles=(0.5,))
        acc = agg.create_accumulator()
        acc = agg.add_batch(acc, rng.uniform(1, 10, 1_000))
        assert acc.count == 1_000


class TestCollectingAggregator:
    def test_returns_sorted_values(self):
        agg = CollectingAggregator()
        acc = agg.create_accumulator()
        acc = agg.add_batch(acc, np.asarray([3.0]))
        acc = agg.add_batch(acc, np.asarray([1.0, 2.0]))
        result = agg.get_result(acc)
        assert result.tolist() == [1.0, 2.0, 3.0]

    def test_empty(self):
        agg = CollectingAggregator()
        assert agg.get_result(agg.create_accumulator()).size == 0


class TestCountAggregator:
    def test_counts(self):
        agg = CountAggregator()
        acc = agg.create_accumulator()
        acc = agg.add_batch(acc, np.asarray([42.0]))
        acc = agg.add_batch(acc, np.zeros(9))
        assert agg.get_result(acc) == 10
