"""Unit tests for the KLL sketch."""

import numpy as np
import pytest

from repro.core import DDSketch, KLLSketch, dumps
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidValueError,
)
from tests.conftest import true_quantiles


class TestBasics:
    def test_empty(self):
        sketch = KLLSketch()
        with pytest.raises(EmptySketchError):
            sketch.quantile(0.5)

    def test_small_stream_is_exact(self):
        # Below one compactor's capacity nothing is discarded.
        sketch = KLLSketch(max_compactor_size=350, seed=0)
        data = [3.0, 8.0, 11.0, 14.0, 16.0, 19.0, 25.0, 29.0, 30.0, 51.0]
        for value in data:
            sketch.update(value)
        # Table 1 of the paper: rank/quantile of the example data set.
        assert sketch.quantile(0.5) == 16.0
        assert sketch.quantile(0.9) == 30.0
        assert sketch.quantile(1.0) == 51.0
        assert sketch.quantile(0.1) == 3.0

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidValueError):
            KLLSketch(max_compactor_size=4)

    def test_rejects_non_finite(self):
        sketch = KLLSketch()
        with pytest.raises(InvalidValueError):
            sketch.update(float("nan"))

    def test_estimates_are_actual_stream_values(self, rng):
        # Sec 3.1: KLL estimates are values from the data set.
        data = np.round(rng.uniform(0, 1000, 20_000), 7)
        universe = set(data.tolist())
        sketch = KLLSketch(seed=3)
        sketch.update_batch(data)
        for q in (0.05, 0.3, 0.5, 0.77, 0.99):
            assert sketch.quantile(q) in universe

    def test_deterministic_with_seed(self, pareto_data):
        a = KLLSketch(seed=99)
        b = KLLSketch(seed=99)
        a.update_batch(pareto_data)
        b.update_batch(pareto_data)
        for q in (0.1, 0.5, 0.9):
            assert a.quantile(q) == b.quantile(q)


class TestCompaction:
    def test_space_stays_bounded(self, rng):
        sketch = KLLSketch(max_compactor_size=200, seed=1)
        sketch.update_batch(rng.uniform(0, 1, 200_000))
        # Space is O(k) with the geometric capacity schedule.
        assert sketch.num_retained < 4 * 200
        assert sketch.count == 200_000

    def test_retained_count_matches_buffers(self, rng):
        sketch = KLLSketch(max_compactor_size=64, seed=1)
        sketch.update_batch(rng.uniform(0, 1, 10_000))
        assert sketch.num_retained == sum(
            len(b) for b in sketch._compactors
        )

    def test_weights_preserve_total_count_approximately(self, rng):
        sketch = KLLSketch(max_compactor_size=128, seed=5)
        n = 50_000
        sketch.update_batch(rng.uniform(0, 1, n))
        values, weights = sketch._weighted_samples()
        # Compaction conserves weight in expectation; the odd leftover
        # items make it inexact but close.
        assert abs(int(weights.sum()) - n) / n < 0.05

    def test_levels_grow_logarithmically(self, rng):
        sketch = KLLSketch(max_compactor_size=128, seed=2)
        sketch.update_batch(rng.uniform(0, 1, 100_000))
        assert 5 <= sketch.num_levels <= 24

    def test_paper_retention_at_paper_scale(self, rng):
        # Sec 4.3: k = 350 retains ~1048 samples after 1M points.  At
        # 200k points the hierarchy is almost as deep; retention must
        # be in the same few-hundreds-to-~1300 band, not O(n).
        sketch = KLLSketch(max_compactor_size=350, seed=0)
        sketch.update_batch(rng.uniform(0, 1, 200_000))
        assert 600 <= sketch.num_retained <= 1500


class TestAccuracy:
    def test_rank_error_within_expected_bound(self, rng):
        sketch = KLLSketch(max_compactor_size=350, seed=7)
        data = rng.uniform(0, 1, 100_000)
        sketch.update_batch(data)
        s = np.sort(data)
        bound = 3 * sketch.guarantee().eps  # ~3 sigma headroom
        for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            est = sketch.quantile(q)
            rank = np.searchsorted(s, est, side="right") / s.size
            assert abs(rank - q) <= bound, (q, rank)

    def test_guarantee_matches_paper(self):
        # Sec 4.2: k = 350 gives ~0.97% rank error, which DataSketches
        # states at 99% confidence.
        guarantee = KLLSketch(350).guarantee()
        assert guarantee.kind == "rank"
        assert guarantee.eps == pytest.approx(0.0097, abs=0.0005)
        assert guarantee.confidence == 0.99

    def test_high_relative_error_on_pareto_tail(self, rng):
        # Sec 4.5.1: small rank error is a large relative error at the
        # tail of a heavy-tailed distribution.
        data = 1.0 + rng.pareto(1.0, 100_000)
        kll = KLLSketch(max_compactor_size=350, seed=11)
        kll.update_batch(data)
        dds = DDSketch(alpha=0.01)
        dds.update_batch(data)
        true = true_quantiles(data, (0.99,))[0.99]
        kll_err = abs(kll.quantile(0.99) - true) / true
        dds_err = abs(dds.quantile(0.99) - true) / true
        assert kll_err > dds_err

    def test_accurate_on_repeated_values(self, rng):
        # Sec 4.5.3: repeated values survive compaction, so estimates
        # in dense regions are often exact.
        data = rng.choice([6.5, 7.5, 8.0, 9.0], 50_000)
        sketch = KLLSketch(seed=13)
        sketch.update_batch(data)
        assert sketch.quantile(0.25) in {6.5, 7.5}


class TestMerge:
    def test_merge_count_and_range(self, rng):
        a = KLLSketch(seed=1)
        b = KLLSketch(seed=2)
        a.update_batch(rng.uniform(0, 1, 10_000))
        b.update_batch(rng.uniform(9, 10, 10_000))
        a.merge(b)
        assert a.count == 20_000
        assert a.min < 1.0
        assert a.max > 9.0

    def test_merge_preserves_accuracy(self, rng):
        parts = [rng.uniform(0, 100, 20_000) for _ in range(5)]
        merged = KLLSketch(max_compactor_size=350, seed=0)
        for i, part in enumerate(parts):
            piece = KLLSketch(max_compactor_size=350, seed=i + 1)
            piece.update_batch(part)
            merged.merge(piece)
        data = np.concatenate(parts)
        s = np.sort(data)
        for q in (0.25, 0.5, 0.75, 0.95):
            est = merged.quantile(q)
            rank = np.searchsorted(s, est, side="right") / s.size
            assert abs(rank - q) < 0.04

    def test_merge_respects_capacity(self, rng):
        a = KLLSketch(max_compactor_size=128, seed=1)
        b = KLLSketch(max_compactor_size=128, seed=2)
        a.update_batch(rng.uniform(0, 1, 50_000))
        b.update_batch(rng.uniform(0, 1, 50_000))
        a.merge(b)
        assert a.num_retained <= a._total_capacity()

    def test_merge_wrong_type(self):
        with pytest.raises(IncompatibleSketchError):
            KLLSketch().merge(DDSketch())

    def test_merge_refuses_a_different_k(self, rng):
        # A k = 8 operand would leave k = 350's bound far from true.
        a, b = KLLSketch(350, seed=1), KLLSketch(8, seed=2)
        a.update_batch(rng.uniform(0, 1, 5_000))
        b.update_batch(rng.uniform(0, 1, 5_000))
        before = dumps(a), dumps(b)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
        assert (dumps(a), dumps(b)) == before


class TestRank:
    def test_rank_consistent_with_quantile(self, rng):
        data = rng.uniform(0, 1, 50_000)
        sketch = KLLSketch(seed=21)
        sketch.update_batch(data)
        for q in (0.2, 0.5, 0.8):
            value = sketch.quantile(q)
            assert abs(sketch.rank(value) / sketch.count - q) < 0.05
