"""Unit tests for the maximum-entropy solver."""

import numpy as np
import pytest

from repro.core.maxent import (
    MaxEntropySolver,
    chebyshev_grid,
    chebyshev_hessian,
    power_to_chebyshev_moments,
)


def chebyshev_moments_of(samples: np.ndarray, k: int) -> np.ndarray:
    """Empirical Chebyshev moments of samples scaled to [-1, 1]."""
    power = np.asarray([
        np.mean(samples ** i) for i in range(k + 1)
    ])
    return power_to_chebyshev_moments(power)


class TestMomentConversion:
    def test_low_order_identities(self):
        # T_0 = 1, T_1 = x, T_2 = 2x^2 - 1.
        power = np.asarray([1.0, 0.25, 0.5, 0.1])
        cheb = power_to_chebyshev_moments(power)
        assert cheb[0] == pytest.approx(1.0)
        assert cheb[1] == pytest.approx(0.25)
        assert cheb[2] == pytest.approx(2 * 0.5 - 1.0)
        # T_3 = 4x^3 - 3x.
        assert cheb[3] == pytest.approx(4 * 0.1 - 3 * 0.25)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1, 1, 50_000)
        cheb = chebyshev_moments_of(samples, 6)
        for j in range(7):
            direct = float(np.mean(np.cos(j * np.arccos(samples))))
            assert cheb[j] == pytest.approx(direct, abs=1e-9)


class TestSolver:
    def test_recovers_uniform(self):
        # Uniform on [-1, 1]: E[T_j] = 0 for odd j, known values even.
        rng = np.random.default_rng(1)
        samples = rng.uniform(-1, 1, 200_000)
        solution = MaxEntropySolver().solve(
            chebyshev_moments_of(samples, 8)
        )
        # The fitted density is flat to within sampling noise.
        assert solution.pdf.std() / solution.pdf.mean() < 0.05
        assert solution.quantile(0.5) == pytest.approx(0.0, abs=0.02)
        assert solution.quantile(0.25) == pytest.approx(-0.5, abs=0.03)

    def test_recovers_truncated_gaussian(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 0.25, 300_000)
        samples = samples[np.abs(samples) < 1.0]
        solution = MaxEntropySolver().solve(
            chebyshev_moments_of(samples, 10)
        )
        s = np.sort(samples)
        for q in (0.1, 0.5, 0.9):
            true = float(s[int(q * s.size)])
            assert solution.quantile(q) == pytest.approx(true, abs=0.02)

    def test_cdf_properties(self):
        rng = np.random.default_rng(3)
        samples = rng.beta(2.0, 5.0, 100_000) * 2.0 - 1.0
        solution = MaxEntropySolver().solve(
            chebyshev_moments_of(samples, 8)
        )
        assert solution.cdf[0] == 0.0
        assert solution.cdf[-1] == 1.0
        assert (np.diff(solution.cdf) >= -1e-12).all()

    def test_quantile_inverts_cdf(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-0.8, 0.8, 100_000)
        solution = MaxEntropySolver().solve(
            chebyshev_moments_of(samples, 6)
        )
        for q in (0.2, 0.5, 0.8):
            x = solution.quantile(q)
            assert solution.cdf_at(x) == pytest.approx(q, abs=1e-3)

    def test_converges_quickly_on_easy_input(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-1, 1, 100_000)
        solution = MaxEntropySolver().solve(
            chebyshev_moments_of(samples, 6)
        )
        assert solution.iterations < 50
        assert solution.gradient_norm < 1e-6

    def test_grid_size_controls_resolution(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(0, 0.3, 100_000)
        samples = samples[np.abs(samples) < 1.0]
        moments = chebyshev_moments_of(samples, 8)
        coarse = MaxEntropySolver(grid_size=128).solve(moments)
        fine = MaxEntropySolver(grid_size=2048).solve(moments)
        assert coarse.grid.size == 128
        assert fine.grid.size == 2048
        assert fine.quantile(0.5) == pytest.approx(
            coarse.quantile(0.5), abs=0.02
        )


class TestChebyshevGram:
    """``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2`` makes the step's Gram
    matrix and gradient a read of ``2k + 1`` expectations."""

    @pytest.mark.parametrize("grid_size", [64, 257, 1024])
    def test_matches_the_direct_gram_matrix(self, grid_size):
        rng = np.random.default_rng(20230328)
        for k in range(2, 21):
            grid, basis_2k = chebyshev_grid(grid_size, 2 * k)
            basis = basis_2k[: k + 1]
            weights = np.full(grid_size, grid[1] - grid[0])
            weights[[0, -1]] *= 0.5
            for _ in range(5):
                theta = rng.normal(0.0, 1.0 / k, k + 1)
                pdf_weights = np.exp(theta @ basis) * weights
                expectations = basis_2k @ pdf_weights
                hessian = chebyshev_hessian(expectations)
                direct = (basis * pdf_weights) @ basis.T
                assert np.abs(hessian - direct).max() <= (
                    1e-12 * np.abs(direct).max()
                )
                moments = basis @ pdf_weights
                assert np.abs(expectations[: k + 1] - moments).max() <= (
                    1e-12 * np.abs(moments).max()
                )
                assert hessian.tobytes() == hessian.T.tobytes()
