"""Unit tests for KLL± (deletion-capable KLL)."""

import numpy as np
import pytest

from repro.core import KLLPlusMinus, KLLSketch, dumps, loads
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidValueError,
)


class TestBasics:
    def test_without_deletions_equals_kll(self, rng):
        data = rng.uniform(0, 100, 20_000)
        pm = KLLPlusMinus(max_compactor_size=350, seed=5)
        kll = KLLSketch(max_compactor_size=350, seed=5)
        pm.update_batch(data)
        kll.update_batch(data)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert pm.quantile(q) == kll.quantile(q)

    def test_empty(self):
        with pytest.raises(EmptySketchError):
            KLLPlusMinus().quantile(0.5)
        with pytest.raises(EmptySketchError):
            KLLPlusMinus().rank(1.0)

    def test_net_count(self, rng):
        pm = KLLPlusMinus(seed=1)
        data = rng.uniform(0, 1, 1_000)
        pm.update_batch(data)
        pm.delete_batch(data[:400])
        assert pm.count == 600
        assert pm.num_deleted == 400

    def test_cannot_overdelete(self, rng):
        pm = KLLPlusMinus(seed=1)
        pm.update_batch(rng.uniform(0, 1, 100))
        with pytest.raises(InvalidValueError):
            pm.delete_batch(rng.uniform(0, 1, 101))


class TestDeletionAccuracy:
    def test_deleting_lower_half_shifts_quantiles(self, rng):
        low = rng.uniform(0, 10, 50_000)
        high = rng.uniform(100, 110, 50_000)
        pm = KLLPlusMinus(seed=2)
        pm.update_batch(low)
        pm.update_batch(high)
        assert pm.quantile(0.5) < 100
        pm.delete_batch(low)
        # Only high values remain: all quantiles from the high band.
        for q in (0.05, 0.5, 0.95):
            assert 99 <= pm.quantile(q) <= 110, q

    def test_rank_after_partial_deletion(self, rng):
        data = rng.uniform(0, 1, 60_000)
        pm = KLLPlusMinus(seed=3)
        pm.update_batch(data)
        below_half = data[data < 0.5]
        pm.delete_batch(below_half)
        remaining = np.sort(data[data >= 0.5])
        for q in (0.25, 0.5, 0.75):
            est = pm.quantile(q)
            rank = np.searchsorted(remaining, est, side="right")
            assert abs(rank / remaining.size - q) < 0.05, q

    def test_interleaved_insert_delete(self, rng):
        pm = KLLPlusMinus(seed=4)
        alive: list[np.ndarray] = []
        for round_no in range(5):
            batch = rng.uniform(round_no, round_no + 1, 20_000)
            pm.update_batch(batch)
            alive.append(batch)
            if round_no >= 2:
                victim = alive.pop(0)
                pm.delete_batch(victim)
        remaining = np.sort(np.concatenate(alive))
        assert pm.count == remaining.size
        est = pm.quantile(0.5)
        rank = np.searchsorted(remaining, est, side="right")
        assert abs(rank / remaining.size - 0.5) < 0.05


class TestMerge:
    def test_merge_combines_inserts_and_deletes(self, rng):
        a = KLLPlusMinus(seed=1)
        b = KLLPlusMinus(seed=2)
        data_a = rng.uniform(0, 1, 10_000)
        data_b = rng.uniform(5, 6, 10_000)
        a.update_batch(data_a)
        b.update_batch(data_b)
        b.delete_batch(data_b[:5_000])
        a.merge(b)
        assert a.count == 15_000
        assert a.num_deleted == 5_000

    def test_merge_wrong_type(self):
        with pytest.raises(IncompatibleSketchError):
            KLLPlusMinus().merge(KLLSketch())

    def test_merge_refuses_a_different_k(self, rng):
        # Refused by the inner insert sketches, before either moves.
        a, b = KLLPlusMinus(350, seed=1), KLLPlusMinus(8, seed=2)
        for pm in (a, b):
            data = rng.uniform(0, 1, 5_000)
            pm.update_batch(data)
            pm.delete_batch(data[:1_000])
        before = dumps(a), dumps(b)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
        assert (dumps(a), dumps(b)) == before


class TestSerialization:
    def test_round_trip_with_deletions(self, rng):
        pm = KLLPlusMinus(seed=7)
        data = rng.uniform(0, 100, 20_000)
        pm.update_batch(data)
        pm.delete_batch(data[:5_000])
        restored = loads(dumps(pm))
        assert restored.count == pm.count
        assert restored.num_deleted == pm.num_deleted
        assert restored.quantile(0.5) == pm.quantile(0.5)


class TestSpace:
    def test_space_is_two_kll_sketches(self, rng):
        pm = KLLPlusMinus(max_compactor_size=200, seed=1)
        data = rng.uniform(0, 1, 100_000)
        pm.update_batch(data)
        pm.delete_batch(data[:50_000])
        kll = KLLSketch(max_compactor_size=200, seed=1)
        kll.update_batch(data)
        assert pm.size_bytes() <= 3 * kll.size_bytes()
