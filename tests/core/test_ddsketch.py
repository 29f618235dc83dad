"""Unit tests for DDSketch."""

import numpy as np
import pytest

from repro.core import DDSketch, KLLSketch
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidQuantileError,
    InvalidValueError,
)
from tests.conftest import true_quantiles


class TestBasics:
    def test_empty_sketch_raises(self):
        sketch = DDSketch()
        assert sketch.is_empty
        with pytest.raises(EmptySketchError):
            sketch.quantile(0.5)
        with pytest.raises(EmptySketchError):
            _ = sketch.min

    def test_single_value(self):
        sketch = DDSketch(alpha=0.01)
        sketch.update(42.0)
        assert sketch.count == 1
        assert sketch.quantile(0.5) == pytest.approx(42.0, rel=0.01)
        assert sketch.quantile(1.0) == pytest.approx(42.0, rel=0.01)

    def test_invalid_quantiles(self):
        sketch = DDSketch()
        sketch.update(1.0)
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidQuantileError):
                sketch.quantile(q)

    def test_rejects_non_finite(self):
        sketch = DDSketch()
        with pytest.raises(InvalidValueError):
            sketch.update(float("nan"))
        with pytest.raises(InvalidValueError):
            sketch.update_batch([1.0, float("inf")])

    def test_min_max_count_tracking(self, pareto_data):
        sketch = DDSketch()
        sketch.update_batch(pareto_data)
        assert sketch.count == pareto_data.size
        assert sketch.min == pareto_data.min()
        assert sketch.max == pareto_data.max()

    def test_default_parameters_match_paper(self):
        sketch = DDSketch()
        assert sketch.alpha == pytest.approx(0.01)
        assert sketch.gamma == pytest.approx(1.0202, abs=1e-4)

    def test_unknown_store_rejected(self):
        with pytest.raises(InvalidValueError):
            DDSketch(store="btree")


class TestAccuracyGuarantee:
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_relative_error_bound_on_positive_data(self, alpha, rng):
        data = 10.0 ** rng.uniform(-3, 5, 20_000)
        sketch = DDSketch(alpha=alpha)
        sketch.update_batch(data)
        for q, true in true_quantiles(
            data, (0.01, 0.25, 0.5, 0.75, 0.95, 0.99)
        ).items():
            est = sketch.quantile(q)
            assert abs(est - true) / true <= alpha + 1e-9, q

    def test_guarantee_holds_on_pareto(self, pareto_data):
        sketch = DDSketch(alpha=0.01)
        sketch.update_batch(pareto_data)
        for q, true in true_quantiles(
            pareto_data, (0.05, 0.5, 0.98, 0.99)
        ).items():
            assert abs(sketch.quantile(q) - true) / true <= 0.01 + 1e-9

    def test_negative_and_mixed_data(self, rng):
        data = np.concatenate([
            -(10.0 ** rng.uniform(-2, 2, 5_000)),
            np.zeros(100),
            10.0 ** rng.uniform(-2, 2, 5_000),
        ])
        rng.shuffle(data)
        sketch = DDSketch(alpha=0.02)
        sketch.update_batch(data)
        for q, true in true_quantiles(data, (0.1, 0.25, 0.75, 0.9)).items():
            est = sketch.quantile(q)
            if true != 0:
                assert abs(est - true) / abs(true) <= 0.02 + 1e-9
            else:
                assert est == 0.0

    def test_zeros_only(self):
        sketch = DDSketch()
        sketch.update_batch(np.zeros(100))
        assert sketch.quantile(0.5) == 0.0
        assert sketch.count == 100

    def test_quantiles_monotone(self, pareto_data):
        sketch = DDSketch()
        sketch.update_batch(pareto_data)
        qs = np.linspace(0.01, 1.0, 50)
        estimates = sketch.quantiles(qs)
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_estimates_clamped_to_observed_range(self, pareto_data):
        sketch = DDSketch()
        sketch.update_batch(pareto_data)
        assert sketch.quantile(1.0) <= sketch.max
        assert sketch.quantile(1e-9) >= sketch.min


class TestBatchConsistency:
    def test_batch_equals_scalar_updates(self, rng):
        data = rng.uniform(0.1, 100.0, 2_000)
        batched = DDSketch()
        batched.update_batch(data)
        scalar = DDSketch()
        for value in data:
            scalar.update(float(value))
        for q in (0.1, 0.5, 0.9, 0.99):
            assert batched.quantile(q) == scalar.quantile(q)

    def test_empty_batch_is_noop(self):
        sketch = DDSketch()
        sketch.update_batch(np.zeros(0))
        assert sketch.is_empty


class TestMerge:
    def test_merge_equals_single_sketch(self, rng):
        a_data = rng.uniform(1.0, 50.0, 5_000)
        b_data = rng.uniform(100.0, 500.0, 5_000)
        merged = DDSketch()
        merged.update_batch(a_data)
        other = DDSketch()
        other.update_batch(b_data)
        merged.merge(other)

        single = DDSketch()
        single.update_batch(np.concatenate([a_data, b_data]))
        assert merged.count == single.count
        for q in (0.05, 0.5, 0.95, 0.99):
            assert merged.quantile(q) == single.quantile(q)

    def test_merge_keeps_other_unchanged(self, rng):
        a, b = DDSketch(), DDSketch()
        a.update_batch(rng.uniform(1, 10, 100))
        b.update_batch(rng.uniform(1, 10, 100))
        before = b.quantile(0.5)
        a.merge(b)
        assert b.count == 100
        assert b.quantile(0.5) == before

    def test_merge_incompatible_gamma(self):
        a = DDSketch(alpha=0.01)
        b = DDSketch(alpha=0.02)
        a.update(1.0)
        b.update(1.0)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_wrong_type(self):
        a = DDSketch()
        b = KLLSketch()
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_with_empty(self, rng):
        a = DDSketch()
        a.update_batch(rng.uniform(1, 10, 100))
        before = a.quantile(0.5)
        a.merge(DDSketch())
        assert a.quantile(0.5) == before


class TestRankAndCdf:
    def test_rank_roughly_inverts_quantile(self, pareto_data):
        sketch = DDSketch(alpha=0.01)
        sketch.update_batch(pareto_data)
        n = pareto_data.size
        s = np.sort(pareto_data)
        for q in (0.25, 0.5, 0.9):
            value = float(s[int(q * n)])
            assert abs(sketch.rank(value) / n - q) < 0.02

    def test_rank_extremes(self, pareto_data):
        sketch = DDSketch()
        sketch.update_batch(pareto_data)
        assert sketch.rank(sketch.max) == sketch.count
        assert sketch.rank(sketch.min - 1) == 0
        assert sketch.cdf(sketch.max) == 1.0


class TestStores:
    def test_collapsing_store_respects_budget(self, rng):
        data = 10.0 ** rng.uniform(-6, 6, 50_000)
        sketch = DDSketch(alpha=0.01, store="collapsing", max_bins=128)
        sketch.update_batch(data)
        assert sketch._positive._counts.size <= 128
        assert sketch.guarantee().kind == "none"

    def test_collapsing_store_keeps_upper_quantile_guarantee(self, rng):
        data = 10.0 ** rng.uniform(-6, 6, 50_000)
        bounded = DDSketch(alpha=0.01, store="collapsing", max_bins=512)
        bounded.update_batch(data)
        true = true_quantiles(data, (0.9, 0.99))
        for q, t in true.items():
            assert abs(bounded.quantile(q) - t) / t <= 0.01 + 1e-9

    def test_sparse_store_same_estimates_as_dense(self, pareto_data):
        dense = DDSketch(alpha=0.01, store="dense")
        sparse = DDSketch(alpha=0.01, store="sparse")
        dense.update_batch(pareto_data)
        sparse.update_batch(pareto_data)
        for q in (0.1, 0.5, 0.99):
            assert dense.quantile(q) == sparse.quantile(q)

    def test_num_buckets_bounded_by_range_not_size(self, rng):
        # Sec 4.3: bucket count depends on the data range, not length.
        small = DDSketch()
        large = DDSketch()
        small.update_batch(rng.uniform(1, 100, 1_000))
        large.update_batch(rng.uniform(1, 100, 100_000))
        assert large.num_buckets <= small.num_buckets * 2

    def test_size_bytes_scales_with_buckets(self, rng):
        narrow = DDSketch()
        narrow.update_batch(rng.uniform(10, 11, 10_000))
        wide = DDSketch()
        wide.update_batch(10.0 ** rng.uniform(-6, 6, 10_000))
        assert wide.size_bytes() > narrow.size_bytes()
