"""Unit tests for the logarithmic index mapping."""

import math

import numpy as np
import pytest

from repro.core.mapping import (
    LogarithmicMapping,
    alpha_after_collapses,
    initial_alpha,
)
from repro.errors import IncompatibleSketchError, InvalidValueError


class TestLogarithmicMapping:
    def test_gamma_matches_paper(self):
        # Sec 4.2: alpha = 0.01 gives gamma = 1.0202.
        mapping = LogarithmicMapping(0.01)
        assert mapping.gamma == pytest.approx(1.0202, abs=1e-4)

    def test_index_of_one_is_zero(self):
        mapping = LogarithmicMapping(0.01)
        assert mapping.index(1.0) == 0

    def test_bucket_boundaries_are_respected(self):
        mapping = LogarithmicMapping(0.05)
        for index in (-5, -1, 0, 1, 7, 100):
            lower = mapping.lower_bound(index)
            upper = mapping.upper_bound(index)
            inside = math.sqrt(lower * upper)
            assert mapping.index(inside) == index
            # Upper bound is inclusive.
            assert mapping.index(upper * (1 - 1e-12)) <= index

    def test_relative_error_guarantee(self):
        mapping = LogarithmicMapping(0.01)
        rng = np.random.default_rng(0)
        values = 10.0 ** rng.uniform(-6, 6, 2_000)
        for value in values:
            rep = mapping.value(mapping.index(float(value)))
            assert abs(rep - value) / value <= 0.01 + 1e-12

    def test_index_batch_matches_scalar(self):
        mapping = LogarithmicMapping(0.02)
        rng = np.random.default_rng(1)
        values = 10.0 ** rng.uniform(-3, 3, 500)
        batch = mapping.index_batch(values, np.empty(500, dtype=np.int64))
        scalars = [mapping.index(float(v)) for v in values]
        assert batch.tolist() == scalars

    def test_rejects_nonpositive_values(self):
        mapping = LogarithmicMapping(0.01)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidValueError):
                mapping.index(bad)

    def test_rejects_out_of_range_magnitudes(self):
        mapping = LogarithmicMapping(0.01)
        with pytest.raises(InvalidValueError):
            mapping.index(1e-300)
        with pytest.raises(InvalidValueError):
            mapping.index(1e300)

    def test_rejects_bad_alpha(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InvalidValueError):
                LogarithmicMapping(bad)

    def test_collapsed_squares_gamma(self):
        mapping = LogarithmicMapping(0.01)
        collapsed = mapping.collapsed()
        assert collapsed.gamma == pytest.approx(mapping.gamma ** 2)
        # Sec 3.4: alpha' = 2a / (1 + a^2).
        assert collapsed.alpha == pytest.approx(
            2 * 0.01 / (1 + 0.01 ** 2)
        )

    def test_collapsed_bucket_mapping_consistency(self):
        # Old buckets (2j-1, 2j) must land inside new bucket j.
        mapping = LogarithmicMapping(0.03)
        collapsed = mapping.collapsed()
        for old_index in range(-10, 11):
            value = mapping.value(old_index)
            new_index = (old_index + 1) // 2
            assert collapsed.index(value) == new_index

    def test_compatibility(self):
        a = LogarithmicMapping(0.01)
        b = LogarithmicMapping(0.01)
        c = LogarithmicMapping(0.02)
        assert a.is_compatible_with(b)
        assert not a.is_compatible_with(c)
        with pytest.raises(IncompatibleSketchError):
            a.require_compatible(c)


class TestCollapseAlgebra:
    def test_initial_alpha_round_trips(self):
        for k in (0, 1, 5, 12):
            alpha0 = initial_alpha(0.01, k)
            assert alpha_after_collapses(alpha0, k) == pytest.approx(0.01)

    def test_initial_alpha_is_tighter(self):
        assert initial_alpha(0.01, 12) < 0.01

    def test_zero_collapses_is_identity(self):
        assert initial_alpha(0.05, 0) == pytest.approx(0.05)
        assert alpha_after_collapses(0.05, 0) == pytest.approx(0.05)

    def test_paper_threshold_reached_after_budget(self):
        # Sec 4.2: with num_collapses = 12 the guarantee reaches 0.01
        # only at the 12th collapse, staying tighter before it.
        alpha0 = initial_alpha(0.01, 12)
        for k in range(12):
            assert alpha_after_collapses(alpha0, k) < 0.01
        assert alpha_after_collapses(alpha0, 12) == pytest.approx(0.01)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidValueError):
            initial_alpha(0.01, -1)
        with pytest.raises(InvalidValueError):
            initial_alpha(1.5, 3)
        with pytest.raises(InvalidValueError):
            alpha_after_collapses(0.01, -2)
