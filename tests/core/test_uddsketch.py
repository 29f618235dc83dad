"""Unit tests for UDDSketch."""

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch
from repro.core.mapping import alpha_after_collapses, initial_alpha
from repro.errors import IncompatibleSketchError, InvalidValueError
from tests.conftest import true_quantiles


class TestConfiguration:
    def test_paper_configuration(self):
        sketch = UDDSketch(final_alpha=0.01, num_collapses=12,
                           max_buckets=1024)
        assert sketch.initial_alpha == pytest.approx(
            initial_alpha(0.01, 12)
        )
        assert sketch.initial_alpha < 1e-5
        assert sketch.max_buckets == 1024

    def test_direct_alpha0(self):
        sketch = UDDSketch(alpha0=0.005)
        assert sketch.initial_alpha == pytest.approx(0.005)

    def test_rejects_tiny_budget(self):
        with pytest.raises(InvalidValueError):
            UDDSketch(max_buckets=1)


class TestUniformCollapse:
    def test_collapses_when_over_budget(self, rng):
        sketch = UDDSketch(final_alpha=0.05, num_collapses=6,
                           max_buckets=64)
        sketch.update_batch(10.0 ** rng.uniform(-3, 3, 20_000))
        assert sketch.num_collapses > 0
        assert sketch.num_buckets <= 64
        assert sketch.count == 20_000

    def test_collapse_degrades_alpha_per_formula(self, rng):
        sketch = UDDSketch(final_alpha=0.05, num_collapses=6,
                           max_buckets=64)
        sketch.update_batch(10.0 ** rng.uniform(-3, 3, 20_000))
        expected = alpha_after_collapses(
            sketch.initial_alpha, sketch.num_collapses
        )
        assert sketch.alpha == pytest.approx(expected, rel=1e-9)

    def test_guarantee_tighter_than_final_before_budget_exhausted(
        self, rng
    ):
        sketch = UDDSketch(final_alpha=0.01, num_collapses=12,
                           max_buckets=1024)
        sketch.update_batch(1.0 + rng.pareto(1.0, 50_000))
        assert sketch.num_collapses <= sketch.collapse_budget
        # Sec 4.5.5: the realised threshold is much lower than 0.01.
        assert sketch.guarantee().eps < 0.01

    def test_error_within_guarantee(self, rng):
        data = 10.0 ** rng.uniform(-2, 4, 30_000)
        sketch = UDDSketch(final_alpha=0.01, num_collapses=12,
                           max_buckets=1024)
        sketch.update_batch(data)
        guarantee = sketch.guarantee().eps
        for q, true in true_quantiles(
            data, (0.05, 0.25, 0.5, 0.9, 0.99)
        ).items():
            assert abs(sketch.quantile(q) - true) / true <= guarantee + 1e-9

    def test_tighter_guarantee_than_ddsketch_before_budget_spent(
        self, pareto_data
    ):
        # Sec 4.5.5: UDDSketch's *realised* guarantee stays tighter than
        # DDSketch's nominal 1% until the collapse budget is consumed,
        # and its worst observed error respects that tighter bound.
        udd = UDDSketch()
        dds = DDSketch(alpha=0.01)
        udd.update_batch(pareto_data)
        dds.update_batch(pareto_data)
        assert udd.guarantee().eps < dds.guarantee().eps
        true = true_quantiles(pareto_data, (0.25, 0.5, 0.75, 0.9, 0.99))
        worst_udd = max(
            abs(udd.quantile(q) - t) / t for q, t in true.items()
        )
        assert worst_udd <= udd.guarantee().eps + 1e-9


class TestMerge:
    def test_merge_same_level(self, rng):
        a_data = rng.uniform(1, 100, 5_000)
        b_data = rng.uniform(1, 100, 5_000)
        a, b = UDDSketch(), UDDSketch()
        a.update_batch(a_data)
        b.update_batch(b_data)
        a.merge(b)
        single = UDDSketch()
        single.update_batch(np.concatenate([a_data, b_data]))
        assert a.count == single.count
        for q in (0.1, 0.5, 0.9):
            assert a.quantile(q) == pytest.approx(
                single.quantile(q), rel=1e-9
            )

    def test_merge_aligns_collapse_levels(self, rng):
        # One sketch has collapsed more; merging must coarsen the finer.
        fine = UDDSketch(final_alpha=0.05, num_collapses=8, max_buckets=512)
        coarse = UDDSketch(final_alpha=0.05, num_collapses=8, max_buckets=32)
        fine.update_batch(rng.uniform(1, 10, 5_000))
        coarse.update_batch(10.0 ** rng.uniform(-3, 3, 5_000))
        assert coarse.num_collapses > fine.num_collapses
        fine.merge(coarse)
        assert fine.count == 10_000
        assert fine._mapping.alpha == pytest.approx(
            max(coarse._mapping.alpha, fine._mapping.alpha)
        )

    def test_merge_leaves_other_unchanged_even_when_coarsening(self, rng):
        fine = UDDSketch(final_alpha=0.05, num_collapses=8, max_buckets=32)
        coarse = UDDSketch(final_alpha=0.05, num_collapses=8, max_buckets=512)
        fine.update_batch(10.0 ** rng.uniform(-3, 3, 5_000))
        coarse.update_batch(rng.uniform(1, 10, 5_000))
        # Here *other* (coarse var name notwithstanding) is finer.
        other_alpha_before = coarse._mapping.alpha
        other_buckets_before = coarse.num_buckets
        fine.merge(coarse)
        assert coarse._mapping.alpha == other_alpha_before
        assert coarse.num_buckets == other_buckets_before

    def test_merge_wrong_type(self):
        a = UDDSketch()
        b = DDSketch()
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_incompatible_initial_accuracy(self):
        a = UDDSketch(alpha0=0.01)
        b = UDDSketch(alpha0=0.013)  # not a power-collapse of 0.01
        a.update(1.0)
        b.update(1.0)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)


class TestCopy:
    def test_copy_independent(self, rng):
        sketch = UDDSketch()
        sketch.update_batch(rng.uniform(1, 10, 1_000))
        clone = sketch.copy()
        clone.update_batch(rng.uniform(100, 200, 1_000))
        assert sketch.count == 1_000
        assert clone.count == 2_000

    def test_copy_preserves_estimates(self, pareto_data):
        sketch = UDDSketch()
        sketch.update_batch(pareto_data)
        clone = sketch.copy()
        for q in (0.1, 0.5, 0.99):
            assert clone.quantile(q) == sketch.quantile(q)


class TestFootprint:
    def test_map_store_is_heavier_than_ddsketch(self, pareto_data):
        # Table 3: UDDSketch's 3-numbers-per-bucket map store makes it
        # the largest sketch.
        udd = UDDSketch()
        dds = DDSketch()
        udd.update_batch(pareto_data)
        dds.update_batch(pareto_data)
        assert udd.size_bytes() > dds.size_bytes()
