"""Tests for the seeded traffic-shape generators (repro.data.traffic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.traffic import (
    DiurnalCurve,
    FlashCrowd,
    LatencyValues,
    ZipfTenants,
)
from repro.errors import InvalidValueError


class TestZipfTenants:
    def test_shares_sum_to_one_and_decrease(self):
        tenants = ZipfTenants(n_tenants=6, exponent=1.2)
        shares = [tenants.share(i) for i in range(6)]
        assert sum(shares) == pytest.approx(1.0)
        assert shares == sorted(shares, reverse=True)

    def test_names_are_stable_and_prefixed(self):
        tenants = ZipfTenants(n_tenants=3, prefix="lat.tenant")
        assert tenants.names == (
            "lat.tenant00",
            "lat.tenant01",
            "lat.tenant02",
        )
        assert tenants.name_of(2) == "lat.tenant02"

    def test_pick_is_seed_deterministic(self):
        tenants = ZipfTenants(n_tenants=8)
        a = tenants.pick(200, np.random.default_rng(7))
        b = tenants.pick(200, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_pick_skews_toward_rank_zero(self):
        tenants = ZipfTenants(n_tenants=8, exponent=1.1)
        picks = tenants.pick(2_000, np.random.default_rng(11))
        counts = np.bincount(picks, minlength=8)
        assert counts[0] == counts.max()
        assert counts[0] > counts[-1]

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            ZipfTenants(n_tenants=0)
        with pytest.raises(InvalidValueError):
            ZipfTenants(exponent=-0.5)


class TestDiurnalCurve:
    def test_peak_and_trough(self):
        curve = DiurnalCurve(base=2.0, peak=8.0, period=24, peak_tick=18)
        assert curve.level_at(18) == pytest.approx(8.0)
        assert curve.level_at(6) == pytest.approx(2.0)

    def test_periodicity(self):
        curve = DiurnalCurve(base=1.0, peak=5.0, period=12, peak_tick=3)
        for tick in range(12):
            assert curve.level_at(tick) == pytest.approx(
                curve.level_at(tick + 12)
            )

    def test_batches_are_rounded_levels(self):
        curve = DiurnalCurve(base=2.0, peak=8.0, period=24, peak_tick=0)
        assert curve.batches_at(0) == 8
        assert curve.batches_at(12) == 2

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            DiurnalCurve(base=5.0, peak=2.0)
        with pytest.raises(InvalidValueError):
            DiurnalCurve(period=0)


class TestFlashCrowd:
    def test_spike_window_multiplies_base_curve(self):
        flat = DiurnalCurve(base=4.0, peak=4.0, period=24, peak_tick=0)
        crowd = FlashCrowd(flat, at=3, length=2, multiplier=5.0)
        assert not crowd.in_spike(2)
        assert crowd.in_spike(3)
        assert crowd.in_spike(4)
        assert not crowd.in_spike(5)
        assert crowd.level_at(3) == pytest.approx(20.0)
        assert crowd.level_at(5) == pytest.approx(4.0)
        assert crowd.batches_at(4) == 20

    def test_crowds_stack(self):
        flat = DiurnalCurve(base=2.0, peak=2.0, period=24, peak_tick=0)
        inner = FlashCrowd(flat, at=1, length=3, multiplier=2.0)
        outer = FlashCrowd(inner, at=2, length=1, multiplier=3.0)
        assert outer.level_at(1) == pytest.approx(4.0)
        assert outer.level_at(2) == pytest.approx(12.0)
        assert outer.level_at(3) == pytest.approx(4.0)

    def test_validation(self):
        flat = DiurnalCurve(base=2.0, peak=2.0, period=24, peak_tick=0)
        with pytest.raises(InvalidValueError):
            FlashCrowd(flat, at=-1, length=1, multiplier=2.0)
        with pytest.raises(InvalidValueError):
            FlashCrowd(flat, at=0, length=0, multiplier=2.0)
        with pytest.raises(InvalidValueError):
            FlashCrowd(flat, at=0, length=1, multiplier=0.0)


class TestLatencyValues:
    def test_samples_positive_and_deterministic(self):
        values = LatencyValues()
        a = values.sample(500, np.random.default_rng(3))
        b = values.sample(500, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert (a > 0).all()

    def test_scale_multiplies(self):
        values = LatencyValues()
        base = values.sample(100, np.random.default_rng(5))
        scaled = values.sample(100, np.random.default_rng(5), scale=3.0)
        assert np.allclose(scaled, base * 3.0)

    def test_validation(self):
        values = LatencyValues()
        with pytest.raises(InvalidValueError):
            values.sample(0, np.random.default_rng(1))
        with pytest.raises(InvalidValueError):
            values.sample(10, np.random.default_rng(1), scale=0.0)
