"""Property-based tests (hypothesis) for the core sketch invariants.

These cover the guarantees the paper's analysis leans on: the DD/UDD
relative-error bound on arbitrary positive floats, quantile
monotonicity, merge-equals-concatenation, serialization round-trips,
and order insensitivity of the deterministic summaries.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    DDSketch,
    ExactQuantiles,
    KLLSketch,
    MomentsSketch,
    ReqSketch,
    TDigest,
    UDDSketch,
    dumps,
    loads,
)

positive_floats = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(positive_floats, min_size=1, max_size=300)
quantiles = st.floats(min_value=0.001, max_value=1.0)


def exact_quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(math.ceil(q * len(s)), 1) - 1]


class TestDDSketchProperties:
    @given(values=value_lists, q=quantiles)
    @settings(max_examples=150, deadline=None)
    def test_relative_error_guarantee(self, values, q):
        sketch = DDSketch(alpha=0.01)
        sketch.update_batch(values)
        true = exact_quantile(values, q)
        est = sketch.quantile(q)
        assert abs(est - true) / true <= 0.01 + 1e-9

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_order_insensitive(self, values):
        forward = DDSketch()
        forward.update_batch(values)
        backward = DDSketch()
        backward.update_batch(list(reversed(values)))
        for q in (0.25, 0.5, 0.9):
            assert forward.quantile(q) == backward.quantile(q)

    @given(a=value_lists, b=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        merged = DDSketch()
        merged.update_batch(a)
        other = DDSketch()
        other.update_batch(b)
        merged.merge(other)
        single = DDSketch()
        single.update_batch(a + b)
        for q in (0.1, 0.5, 0.99):
            assert merged.quantile(q) == single.quantile(q)

    @given(values=value_lists, q1=quantiles, q2=quantiles)
    @settings(max_examples=100, deadline=None)
    def test_quantile_monotone(self, values, q1, q2):
        sketch = DDSketch()
        sketch.update_batch(values)
        lo, hi = sorted((q1, q2))
        assert sketch.quantile(lo) <= sketch.quantile(hi) + 1e-12


class TestUDDSketchProperties:
    @given(values=value_lists, q=quantiles)
    @settings(max_examples=80, deadline=None)
    def test_guarantee_always_holds(self, values, q):
        sketch = UDDSketch(final_alpha=0.05, num_collapses=6,
                           max_buckets=64)
        sketch.update_batch(values)
        true = exact_quantile(values, q)
        est = sketch.quantile(q)
        assert abs(est - true) / true <= sketch.guarantee().eps + 1e-9

    @given(values=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_bucket_budget_respected(self, values):
        sketch = UDDSketch(final_alpha=0.05, num_collapses=6,
                           max_buckets=32)
        sketch.update_batch(values)
        assert sketch.num_buckets <= 32

    @given(a=value_lists, b=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_merge_count(self, a, b):
        x = UDDSketch(max_buckets=64)
        y = UDDSketch(max_buckets=64)
        x.update_batch(a)
        y.update_batch(b)
        x.merge(y)
        assert x.count == len(a) + len(b)
        assert x.min == min(a + b)
        assert x.max == max(a + b)


class TestSamplingSketchProperties:
    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_kll_estimates_come_from_stream(self, values):
        sketch = KLLSketch(max_compactor_size=16, seed=0)
        sketch.update_batch(values)
        universe = set(values)
        for q in (0.2, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) in universe

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_req_estimates_come_from_stream(self, values):
        sketch = ReqSketch(num_sections=4, seed=0)
        sketch.update_batch(values)
        universe = set(values)
        for q in (0.2, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) in universe

    @given(values=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_req_hra_keeps_maximum(self, values):
        sketch = ReqSketch(num_sections=4, hra=True, seed=1)
        sketch.update_batch(values)
        assert sketch.quantile(1.0) == max(values)

    @given(values=st.lists(positive_floats, min_size=1, max_size=2000))
    @settings(max_examples=30, deadline=None)
    def test_kll_space_bound(self, values):
        sketch = KLLSketch(max_compactor_size=16, seed=2)
        sketch.update_batch(values)
        assert sketch.num_retained <= sketch._total_capacity() + 16


class TestMomentsProperties:
    @given(a=value_lists, b=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_exactly_additive(self, a, b):
        x, y = MomentsSketch(num_moments=6), MomentsSketch(num_moments=6)
        x.update_batch(a)
        y.update_batch(b)
        x.merge(y)
        single = MomentsSketch(num_moments=6)
        single.update_batch(a + b)
        assert np.allclose(
            x.power_sums, single.power_sums, rtol=1e-9, atol=1e-6
        )

    @given(values=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_estimates_within_range(self, values):
        assume(len(values) >= 5)
        sketch = MomentsSketch(num_moments=6)
        sketch.update_batch(values)
        for q in (0.1, 0.5, 0.9):
            est = sketch.quantile(q)
            assert min(values) <= est <= max(values)


class TestSerializationProperties:
    @given(values=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_every_sketch(self, values):
        for sketch in (
            DDSketch(),
            UDDSketch(max_buckets=64),
            KLLSketch(max_compactor_size=16, seed=0),
            ReqSketch(num_sections=4, seed=0),
            MomentsSketch(num_moments=6),
            TDigest(compression=20),
            ExactQuantiles(),
        ):
            sketch.update_batch(values)
            restored = loads(dumps(sketch))
            assert restored.count == sketch.count
            assert restored.quantile(0.5) == pytest.approx(
                sketch.quantile(0.5), rel=1e-9
            )


class TestExactProperties:
    @given(values=value_lists, q=quantiles)
    @settings(max_examples=100, deadline=None)
    def test_exact_matches_definition(self, values, q):
        exact = ExactQuantiles()
        exact.update_batch(values)
        assert exact.quantile(q) == exact_quantile(values, q)

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_rank_quantile_galois(self, values):
        # Rank and quantile form the adjunction of Sec 2.1:
        # quantile(rank(x)/N) <= x for any stream value x.  A tiny
        # epsilon keeps float rounding of r/n * n from tipping the
        # ceiling over r.
        exact = ExactQuantiles()
        exact.update_batch(values)
        n = len(values)
        for x in values[:20]:
            r = exact.rank(x)
            assert r >= 1
            assert exact.quantile(r / n - 1e-12) <= x
