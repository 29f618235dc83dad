"""Unit tests for the Moments Sketch."""

import math

import numpy as np
import pytest

from repro.core import KLLSketch, MomentsSketch, paper_config
from repro.core.maxent import (
    _chebyshev_power_rows,
    chebyshev_grid,
    power_to_chebyshev_moments,
)
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidValueError,
)
from tests.conftest import true_quantiles


class TestBasics:
    def test_empty(self):
        with pytest.raises(EmptySketchError):
            MomentsSketch().quantile(0.5)

    def test_constant_size(self, rng):
        # Sec 4.3: fewer than 20 numbers at k = 12, independent of n.
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(rng.uniform(1, 10, 1_000))
        small = sketch.size_bytes()
        sketch.update_batch(rng.uniform(1, 10, 100_000))
        assert sketch.size_bytes() == small
        assert small <= 20 * 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidValueError):
            MomentsSketch(num_moments=1)
        with pytest.raises(InvalidValueError):
            MomentsSketch(transform="sqrt")
        # A one-point grid used to fail only at the first query.
        for grid_size in (0, 1, -5, 2**16 + 1):
            with pytest.raises(InvalidValueError):
                MomentsSketch(grid_size=grid_size)
        assert MomentsSketch(grid_size=2).grid_size == 2

    def test_power_sums_accumulate(self):
        # Sums are accumulated around the first observed value (the
        # cancellation-avoiding origin shift): with origin 1, the
        # centred values of [1, 2, 3] are [0, 1, 2].
        sketch = MomentsSketch(num_moments=3)
        sketch.update_batch([1.0, 2.0, 3.0])
        sums = sketch.power_sums
        assert sums[0] == 3
        assert sums[1] == pytest.approx(0 + 1 + 2)
        assert sums[2] == pytest.approx(0 + 1 + 4)
        assert sums[3] == pytest.approx(0 + 1 + 8)

    def test_update_equals_batch(self):
        a = MomentsSketch()
        b = MomentsSketch()
        values = [1.5, 2.5, 10.0, 0.3, 7.7]
        for value in values:
            a.update(value)
        b.update_batch(values)
        assert np.allclose(a.power_sums, b.power_sums)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidValueError):
            MomentsSketch().update(float("nan"))


class TestDegenerateStreams:
    def test_below_min_cardinality_falls_back_to_range(self):
        sketch = MomentsSketch()
        sketch.update_batch([5.0, 6.0])
        assert sketch.quantile(0.25) == 5.0
        assert sketch.quantile(0.9) == 6.0

    def test_constant_stream(self):
        sketch = MomentsSketch()
        sketch.update_batch(np.full(100, 3.25))
        assert sketch.quantile(0.5) == 3.25
        assert sketch.quantile(0.99) == 3.25


class TestAccuracy:
    def test_accurate_on_smooth_distribution(self, rng):
        # Moments excels on data matching a smooth density (Sec 4.5.1).
        data = rng.normal(100.0, 15.0, 100_000)
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(data)
        for q, true in true_quantiles(
            data, (0.05, 0.25, 0.5, 0.75, 0.95)
        ).items():
            assert abs(sketch.quantile(q) - true) / abs(true) < 0.01, q

    def test_accurate_on_uniform(self, uniform_data):
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(uniform_data)
        for q, true in true_quantiles(
            uniform_data, (0.25, 0.5, 0.9, 0.99)
        ).items():
            assert abs(sketch.quantile(q) - true) / true < 0.01

    def test_log_transform_needed_for_pareto(self, rng):
        # Sec 4.2: wide-range data gets a log transform.
        data = 1.0 + rng.pareto(1.0, 50_000)
        plain = MomentsSketch(num_moments=12, transform="none")
        logged = MomentsSketch(num_moments=12, transform="log")
        plain.update_batch(data)
        logged.update_batch(data)
        true = true_quantiles(data, (0.5, 0.9))
        err_plain = np.mean([
            abs(plain.quantile(q) - t) / t for q, t in true.items()
        ])
        err_logged = np.mean([
            abs(logged.quantile(q) - t) / t for q, t in true.items()
        ])
        assert err_logged < err_plain

    def test_arcsinh_transform_handles_negatives(self, rng):
        data = rng.normal(0.0, 100.0, 50_000)
        sketch = MomentsSketch(num_moments=10, transform="arcsinh")
        sketch.update_batch(data)
        true = true_quantiles(data, (0.25, 0.75))
        for q, t in true.items():
            assert abs(sketch.quantile(q) - t) / abs(t) < 0.05

    def test_log_transform_rejects_nonpositive(self):
        sketch = MomentsSketch(transform="log")
        with pytest.raises(InvalidValueError):
            sketch.update_batch([1.0, -2.0])

    def test_struggles_on_bimodal_mid_quantiles(self, rng):
        # Sec 4.5.4: the Power data's bimodal shape defeats the
        # max-entropy fit between the humps.
        data = np.concatenate([
            rng.normal(0.3, 0.05, 50_000),
            rng.normal(1.5, 0.2, 50_000),
        ])
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(data)
        true = true_quantiles(data, (0.5,))[0.5]
        mid_error = abs(sketch.quantile(0.5) - true) / true
        smooth = rng.normal(1.0, 0.2, 100_000)
        smooth_sketch = MomentsSketch(num_moments=12)
        smooth_sketch.update_batch(smooth)
        smooth_true = true_quantiles(smooth, (0.5,))[0.5]
        smooth_error = abs(
            smooth_sketch.quantile(0.5) - smooth_true
        ) / smooth_true
        assert mid_error > smooth_error

    def test_more_moments_help(self, rng):
        data = rng.gamma(3.0, 2.0, 100_000)
        true = true_quantiles(data, (0.25, 0.5, 0.75))
        errors = {}
        for k in (4, 12):
            sketch = MomentsSketch(num_moments=k)
            sketch.update_batch(data)
            errors[k] = np.mean([
                abs(sketch.quantile(q) - t) / t for q, t in true.items()
            ])
        assert errors[12] <= errors[4]


class TestMerge:
    def test_merge_is_exact(self, rng):
        a_data = rng.uniform(1, 10, 10_000)
        b_data = rng.uniform(5, 50, 10_000)
        a, b = MomentsSketch(), MomentsSketch()
        a.update_batch(a_data)
        b.update_batch(b_data)
        a.merge(b)
        single = MomentsSketch()
        single.update_batch(np.concatenate([a_data, b_data]))
        assert np.allclose(a.power_sums, single.power_sums)
        assert a.quantile(0.5) == pytest.approx(
            single.quantile(0.5), rel=1e-6
        )

    def test_merge_rejects_mismatched_config(self):
        with pytest.raises(IncompatibleSketchError):
            MomentsSketch(num_moments=10).merge(MomentsSketch(num_moments=12))
        with pytest.raises(IncompatibleSketchError):
            MomentsSketch(transform="log").merge(
                MomentsSketch(transform="none")
            )
        with pytest.raises(IncompatibleSketchError):
            MomentsSketch().merge(KLLSketch())


class TestQueryMechanics:
    def test_quantiles_batch_reuses_solution(self, rng):
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(rng.uniform(1, 10, 10_000))
        estimates = sketch.quantiles((0.1, 0.5, 0.9))
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_estimates_within_observed_range(self, rng):
        sketch = MomentsSketch(num_moments=12)
        data = rng.gamma(2.0, 3.0, 20_000)
        sketch.update_batch(data)
        assert sketch.min <= sketch.quantile(0.001) <= sketch.max
        assert sketch.min <= sketch.quantile(1.0) <= sketch.max

    def test_rank_tracks_cdf(self, rng):
        data = rng.normal(50, 5, 50_000)
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(data)
        s = np.sort(data)
        for q in (0.25, 0.5, 0.75):
            value = float(s[int(q * s.size)])
            assert abs(sketch.rank(value) / sketch.count - q) < 0.02


class TestNumericalStability:
    def test_offset_data_at_k12(self, rng):
        # Zero-origin power sums of U(50, 60) lose ~12 digits in the
        # rescaling at k = 12; the origin-shifted accumulation keeps
        # the fit accurate.
        data = rng.uniform(50, 60, 50_000)
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(data)
        for q, true in true_quantiles(data, (0.25, 0.5, 0.9)).items():
            assert abs(sketch.quantile(q) - true) / true < 0.01, q

    def test_large_offset_small_spread(self, rng):
        data = rng.normal(10_000.0, 1.0, 50_000)
        sketch = MomentsSketch(num_moments=10)
        sketch.update_batch(data)
        true = true_quantiles(data, (0.5,))[0.5]
        assert abs(sketch.quantile(0.5) - true) / true < 0.001

    def test_merge_recenters_across_origins(self, rng):
        # The two halves see different first values, hence different
        # origins; merging must recentre exactly.
        low = rng.uniform(50, 55, 20_000)
        high = rng.uniform(55, 60, 20_000)
        a = MomentsSketch(num_moments=10)
        b = MomentsSketch(num_moments=10)
        a.update_batch(low)
        b.update_batch(high)
        assert a._origin != b._origin
        a.merge(b)
        single = MomentsSketch(num_moments=10)
        single.update_batch(np.concatenate([low, high]))
        for q in (0.25, 0.5, 0.9):
            assert a.quantile(q) == pytest.approx(
                single.quantile(q), rel=1e-6
            )

    def test_merge_into_empty_adopts_origin(self, rng):
        empty = MomentsSketch(num_moments=8)
        full = MomentsSketch(num_moments=8)
        full.update_batch(rng.uniform(10, 20, 1_000))
        empty.merge(full)
        assert empty._origin == full._origin
        assert empty.quantile(0.5) == full.quantile(0.5)


def _recenter_loop(sums, shift):
    """The scalar double loop `_recenter_sums` replaced, kept
    as the bit-identity reference."""
    out = np.zeros_like(sums)
    for i in range(sums.size):
        total = 0.0
        for j in range(i + 1):
            total += math.comb(i, j) * shift ** (i - j) * sums[j]
        out[i] = total
    return out


def _scale_loop(power_sums, lo, hi, origin):
    """`_scale_sums` as it was before it shared `_recenter_sums`."""
    n = power_sums[0]
    s = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    scaled = _recenter_loop(power_sums, origin - s)
    scaled[0] = 1.0
    for i in range(1, scaled.size):
        scaled[i] = scaled[i] / (n * h ** i)
    return scaled


class TestRecentreBitIdentity:
    def test_recenter_matches_scalar_loop_byte_for_byte(self):
        rng = np.random.default_rng(20230328)
        for _ in range(2_000):
            k = int(rng.integers(2, 16))
            sums = rng.normal(0.0, 10.0 ** rng.integers(-3, 9), k + 1)
            sums[0] = float(rng.integers(1, 10**6))
            shift = float(rng.normal(0.0, 10.0 ** rng.integers(-6, 4)))
            new = MomentsSketch._recenter_sums(sums, shift)
            assert new.tobytes() == _recenter_loop(sums, shift).tobytes()

    def test_recenter_edge_shifts(self):
        sums = np.array([-0.0, 3.0, -0.0, 1e-300, 5e300])
        for shift in (0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e60):
            new = MomentsSketch._recenter_sums(sums, shift)
            assert new.tobytes() == _recenter_loop(sums, shift).tobytes()

    def test_scale_sums_matches_scalar_loop_byte_for_byte(self, rng):
        for k in (2, 7, 12, 15):
            sketch = MomentsSketch(num_moments=k)
            sketch.update_batch(rng.lognormal(1.0, 1.0, 5_000))
            args = (
                sketch._power_sums, sketch._t_min, sketch._t_max,
                sketch._origin,
            )
            assert (
                MomentsSketch._scale_sums(*args).tobytes()
                == _scale_loop(*args).tobytes()
            )


def _chebyshev_loop(power_moments: np.ndarray) -> np.ndarray:
    """The conversion as it was before its rows were cached."""
    power_moments = np.asarray(power_moments, dtype=np.float64)
    k = power_moments.size - 1
    cheb = np.zeros(k + 1)
    for j in range(k + 1):
        basis = np.zeros(j + 1)
        basis[j] = 1.0
        coeffs = np.polynomial.chebyshev.cheb2poly(basis)
        cheb[j] = float(coeffs @ power_moments[: coeffs.size])
    return cheb


class TestConstantTables:
    """The solver's input-independent tables are built once per shape
    and shared read-only; nothing an answer depends on moves."""

    def test_cached_tables_are_read_only(self):
        grid, basis = chebyshev_grid(1024, 12)
        assert not grid.flags.writeable
        assert not basis.flags.writeable
        rows = _chebyshev_power_rows(12)
        assert not any(row.flags.writeable for row in rows)
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    def test_grid_basis_equals_a_fresh_build(self):
        for grid_size, degree in ((1024, 12), (257, 5), (64, 20)):
            grid, basis = chebyshev_grid(grid_size, degree)
            fresh_grid = np.linspace(-1.0, 1.0, grid_size)
            fresh = np.polynomial.chebyshev.chebvander(fresh_grid, degree).T
            assert grid.tobytes() == fresh_grid.tobytes()
            assert basis.tobytes() == fresh.tobytes()
            assert basis.strides == fresh.strides  # same matmul layout

    def test_conversion_matches_the_uncached_loop(self):
        rng = np.random.default_rng(20230328)
        for k in range(1, 21):
            for _ in range(20):
                power = rng.uniform(-1.0, 1.0, k + 1)
                power[0] = 1.0
                assert (
                    power_to_chebyshev_moments(power).tobytes()
                    == _chebyshev_loop(power).tobytes()
                )

    @pytest.mark.parametrize("config", ["pareto", "uniform", "joint"])
    def test_answers_equal_before_and_after_the_cache_fills(self, config):
        rng = np.random.default_rng(7)
        if config == "uniform":
            values = rng.uniform(50.0, 60.0, 5_000)
        else:
            values = 1.0 + rng.pareto(1.0, 5_000)

        def build():
            if config == "joint":
                sketch = MomentsSketch(log_moments=True)
            else:
                sketch = paper_config("moments", dataset=config)
            sketch.update_batch(values)
            return sketch

        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        _chebyshev_power_rows.cache_clear()
        chebyshev_grid.cache_clear()
        cold = [q.hex() for q in build().quantiles(qs)]
        assert chebyshev_grid.cache_info().currsize == 1
        warm = [q.hex() for q in build().quantiles(qs)]
        assert cold == warm
