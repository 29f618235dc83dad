"""Unit tests for the synthetic distributions."""

import numpy as np
import pytest

from repro.data.distributions import (
    Binomial,
    Concatenation,
    DriftingPareto,
    DriftingUniform,
    Exponential,
    Gamma,
    Lognormal,
    Normal,
    Pareto,
    REDRAW_EVERY,
    UNIFORM_WIDTH,
    Uniform,
    Zipf,
    adaptability_workload,
)
from repro.errors import InvalidValueError


class TestPlainDistributions:
    def test_pareto_support(self, rng):
        samples = Pareto(shape=1.0, scale=2.0).sample(10_000, rng)
        assert (samples >= 2.0).all()

    def test_pareto_heavy_tail(self, rng):
        samples = Pareto(1.0, 1.0).sample(100_000, rng)
        # Pareto(1): the max dwarfs the median by orders of magnitude.
        assert samples.max() / np.median(samples) > 100

    def test_uniform_bounds(self, rng):
        samples = Uniform(30.0, 100.0).sample(10_000, rng)
        assert samples.min() >= 30.0
        assert samples.max() < 100.0

    def test_binomial_support(self, rng):
        samples = Binomial(100, 0.2).sample(10_000, rng)
        assert samples.min() >= 0
        assert samples.max() <= 100
        assert samples.mean() == pytest.approx(20.0, rel=0.05)
        assert np.allclose(samples, np.round(samples))

    def test_zipf_support_and_skew(self, rng):
        samples = Zipf(20, 0.6).sample(50_000, rng)
        assert set(np.unique(samples)) <= set(range(1, 21))
        counts = np.bincount(samples.astype(int), minlength=21)
        assert counts[1] > counts[20]  # rank 1 most frequent

    def test_zipf_zero_exponent_is_uniform(self, rng):
        samples = Zipf(10, 0.0).sample(50_000, rng)
        counts = np.bincount(samples.astype(int), minlength=11)[1:]
        assert counts.std() / counts.mean() < 0.1

    def test_exponential_mean(self, rng):
        samples = Exponential(150.0).sample(50_000, rng)
        assert samples.mean() == pytest.approx(150.0, rel=0.05)

    def test_gamma_normal_lognormal_shapes(self, rng):
        assert Gamma(2.0, 10.0).sample(100, rng).min() > 0
        normal = Normal(50.0, 10.0).sample(50_000, rng)
        assert normal.mean() == pytest.approx(50.0, abs=0.5)
        assert Lognormal(0.0, 1.0).sample(100, rng).min() > 0

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            Pareto(shape=-1.0)
        with pytest.raises(InvalidValueError):
            Uniform(10.0, 5.0)
        with pytest.raises(InvalidValueError):
            Binomial(0, 0.5)
        with pytest.raises(InvalidValueError):
            Zipf(0)
        with pytest.raises(InvalidValueError):
            Exponential(0.0)
        with pytest.raises(InvalidValueError):
            Normal(0.0, 0.0)

    def test_names_are_stable(self):
        assert Pareto(1.0, 1.0).name == "pareto(a=1,xm=1)"
        assert Uniform(30, 100).name == "uniform(30,100)"


class TestDriftingDistributions:
    def test_drifting_pareto_positive(self, rng):
        samples = DriftingPareto().sample(100_000, rng)
        assert (samples > 0).all()

    def test_drifting_pareto_resembles_pareto(self, rng):
        # Kurtosis should be enormous, like the plain Pareto.
        from scipy import stats
        samples = DriftingPareto().sample(200_000, rng)
        assert stats.kurtosis(samples) > 100

    def test_redraw_blocks_share_parameters(self, rng):
        # Each block of REDRAW_EVERY values shares one drawn minimum, so
        # it spans less than the fixed width; the minima differ.
        samples = DriftingUniform().sample(10 * REDRAW_EVERY, rng)
        blocks = samples.reshape(10, REDRAW_EVERY)
        assert (np.ptp(blocks, axis=1) < UNIFORM_WIDTH).all()
        assert np.unique(blocks.min(axis=1)).size == 10

    def test_drifting_uniform_range(self, rng):
        samples = DriftingUniform().sample(100_000, rng)
        # Minimum drifts as N(1000, 100); width 1000.
        assert samples.min() > 400.0
        assert samples.max() < 2_700.0

    def test_drifting_uniform_low_kurtosis(self, rng):
        from scipy import stats
        samples = DriftingUniform().sample(200_000, rng)
        assert abs(stats.kurtosis(samples)) < 1.3


class TestConcatenation:
    def test_pieces_in_order(self, rng):
        workload = Concatenation([
            (Uniform(0.0, 1.0), 100),
            (Uniform(10.0, 11.0), 100),
        ])
        samples = workload.sample(200, rng)
        assert samples[:100].max() < 1.0
        assert samples[100:].min() >= 10.0

    def test_split_requests_continue_where_left_off(self, rng):
        workload = Concatenation([
            (Uniform(0.0, 1.0), 100),
            (Uniform(10.0, 11.0), 100),
        ])
        first = workload.sample(150, rng)
        second = workload.sample(50, rng)
        assert first[:100].max() < 1.0
        assert first[100:].min() >= 10.0
        assert second.min() >= 10.0

    def test_wraps_around(self, rng):
        workload = Concatenation([(Uniform(0.0, 1.0), 10)])
        samples = workload.sample(25, rng)
        assert samples.size == 25

    def test_reset(self, rng):
        workload = Concatenation([
            (Uniform(0.0, 1.0), 10),
            (Uniform(10.0, 11.0), 10),
        ])
        workload.sample(15, rng)
        workload.reset()
        assert workload.sample(10, rng).max() < 1.0

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            Concatenation([])
        with pytest.raises(InvalidValueError):
            Concatenation([(Uniform(0, 1), 0)])


class TestAdaptabilityWorkload:
    def test_paper_shape(self, rng):
        # Sec 4.5.7: binomial(30, 0.4) then uniform(30, 100); the 0.5
        # quantile sits at the regime boundary.
        workload = adaptability_workload(10_000, 10_000)
        samples = workload.sample(20_000, rng)
        first, second = samples[:10_000], samples[10_000:]
        assert first.max() <= 30
        assert second.min() >= 30
        median = np.median(samples)
        # The boundary: largest binomial values ~ max 30, smallest
        # uniform values ~ 30.
        assert 12 <= median <= 35
