"""Unit tests for the bucket stores."""

import numpy as np
import pytest

from repro.core.store import (
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
    collapsed_indices,
)
from repro.errors import EmptySketchError, InvalidValueError

ALL_STORES = [
    DenseStore,
    lambda: CollapsingLowestDenseStore(max_bins=256),
    SparseStore,
]


@pytest.mark.parametrize("factory", ALL_STORES)
class TestStoreContract:
    """Behaviour every store must share."""

    def test_empty_store(self, factory):
        store = factory()
        assert store.is_empty
        assert store.total == 0
        assert store.num_buckets == 0
        assert list(store.items()) == []
        with pytest.raises(EmptySketchError):
            _ = store.min_index
        with pytest.raises(EmptySketchError):
            _ = store.max_index
        for descending in (False, True):
            view = store.view(descending)
            with pytest.raises(EmptySketchError):
                view.key_at(0)
            assert view.count_through(0) == 0

    def test_single_add(self, factory):
        store = factory()
        store.add(5)
        assert store.total == 1
        assert store.min_index == 5
        assert store.max_index == 5
        assert list(store.items()) == [(5, 1)]

    def test_add_with_count(self, factory):
        store = factory()
        store.add(3, 7)
        assert store.total == 7
        assert list(store.items()) == [(3, 7)]

    def test_add_zero_count_is_noop(self, factory):
        store = factory()
        store.add(3, 0)
        assert store.is_empty

    def test_negative_count_rejected(self, factory):
        store = factory()
        with pytest.raises(InvalidValueError):
            store.add(3, -1)

    def test_negative_indices(self, factory):
        store = factory()
        store.add(-10)
        store.add(-3)
        store.add(4)
        assert store.min_index == -10
        assert store.max_index == 4
        assert store.total == 3

    def test_items_sorted_ascending(self, factory):
        store = factory()
        rng = np.random.default_rng(2)
        for index in rng.integers(-50, 50, 200):
            store.add(int(index))
        indices = [i for i, _c in store.items()]
        assert indices == sorted(indices)

    def test_add_batch_equals_scalar_adds(self, factory):
        rng = np.random.default_rng(3)
        indices = rng.integers(-30, 30, 500)
        batched = factory()
        batched.add_batch(indices)
        scalar = factory()
        for index in indices:
            scalar.add(int(index))
        assert list(batched.items()) == list(scalar.items())
        assert batched.total == scalar.total

    def test_add_batch_empty(self, factory):
        store = factory()
        store.add_batch(np.zeros(0, dtype=np.int64))
        assert store.is_empty

    def test_key_at_rank_walks_cumulatively(self, factory):
        store = factory()
        store.add(0, 10)
        store.add(5, 10)
        store.add(9, 10)
        view = store.view()
        assert view.key_at(0) == 0
        assert view.key_at(9) == 0
        assert view.key_at(10) == 5
        assert view.key_at(19.5) == 5
        assert view.key_at(20) == 9
        assert view.key_at(29) == 9
        # Walked highest key first, as the mirrored negative store is.
        descending = store.view(descending=True)
        assert [descending.key_at(r) for r in (0, 9, 10, 19.5, 20, 29)] == [
            9, 9, 5, 5, 0, 0,
        ]

    def test_count_through_sums_the_walked_buckets(self, factory):
        store = factory()
        for index, count in ((-3, 1), (0, 10), (5, 100), (9, 1000)):
            store.add(index, count)
        ascending, descending = store.view(), store.view(descending=True)
        for key in range(-6, 13):
            assert ascending.count_through(key) == sum(
                c for i, c in store.items() if i <= key
            )
            assert descending.count_through(key) == sum(
                c for i, c in store.items() if i >= key
            )

    def test_merge(self, factory):
        a = factory()
        b = factory()
        a.add(1, 2)
        a.add(4, 1)
        b.add(1, 3)
        b.add(-2, 5)
        a.merge(b)
        assert a.total == 11
        assert dict(a.items()) == {-2: 5, 1: 5, 4: 1}
        # The source store is untouched.
        assert b.total == 8

    def test_merge_empty(self, factory):
        a = factory()
        a.add(3)
        a.merge(factory())
        assert a.total == 1

    def test_copy_is_independent(self, factory):
        store = factory()
        store.add(1, 4)
        clone = store.copy()
        clone.add(1, 1)
        clone.add(9, 2)
        assert store.total == 4
        assert clone.total == 7

    def test_size_bytes_positive_and_grows(self, factory):
        store = factory()
        empty_size = store.size_bytes()
        assert empty_size >= 0
        for index in range(200):
            store.add(index)
        assert store.size_bytes() > empty_size


class TestDenseStore:
    def test_grows_in_chunks(self):
        store = DenseStore()
        store.add(0)
        assert store._counts.size == 64
        store.add(100)
        assert store._counts.size % 64 == 0
        assert store._counts.size >= 101

    def test_merge_dense_fast_path_matches_generic(self):
        rng = np.random.default_rng(4)
        a1, a2 = DenseStore(), DenseStore()
        b = SparseStore()
        indices = rng.integers(-100, 100, 300)
        for index in indices:
            b.add(int(index))
            a2.add(int(index))
        dense_b = DenseStore()
        dense_b.add_batch(indices)
        a1.merge(dense_b)  # dense fast path
        assert list(a1.items()) == list(a2.items())


class TestCollapsingLowestDenseStore:
    def test_respects_bin_budget(self):
        store = CollapsingLowestDenseStore(max_bins=32)
        for index in range(500):
            store.add(index)
        assert store._counts.size <= 32
        assert store.is_collapsed
        assert store.total == 500

    def test_collapses_lowest_preserving_total(self):
        store = CollapsingLowestDenseStore(max_bins=16)
        for index in range(64):
            store.add(index, 2)
        assert store.total == 128
        # Everything below the floor folded into the lowest bucket.
        assert store.min_index == 64 - 16
        lowest_count = dict(store.items())[store.min_index]
        assert lowest_count == 2 * (64 - 16 + 1)

    def test_low_adds_after_collapse_go_to_floor(self):
        store = CollapsingLowestDenseStore(max_bins=8)
        for index in range(20):
            store.add(index)
        floor = store.min_index
        store.add(-100, 5)
        assert store.total == 25
        assert store.min_index == floor

    def test_high_quantile_buckets_unaffected_by_collapse(self):
        bounded = CollapsingLowestDenseStore(max_bins=16)
        unbounded = DenseStore()
        rng = np.random.default_rng(5)
        for index in rng.integers(0, 100, 1000):
            bounded.add(int(index))
            unbounded.add(int(index))
        # The top of the distribution is identical.
        top_b = [(i, c) for i, c in bounded.items() if i >= 90]
        top_u = [(i, c) for i, c in unbounded.items() if i >= 90]
        assert top_b == top_u

    def test_rejects_bad_budget(self):
        with pytest.raises(InvalidValueError):
            CollapsingLowestDenseStore(max_bins=0)

    @pytest.mark.parametrize("low", [(-30, -20), (-5, 12), (0, 11)])
    def test_a_merge_below_the_floor_folds_into_it(self, low):
        store = CollapsingLowestDenseStore(max_bins=8)
        for index in range(20):
            store.add(index)
        floor = store.min_index
        below = DenseStore()
        for index in range(*low):
            below.add(index, 2)
        store.merge(below)
        assert store.min_index == floor
        assert store.total == 20 + below.total
        lowest = dict(store.items())[floor]
        expected = 1 + floor + sum(
            count for index, count in below.items() if index <= floor
        )
        assert lowest == expected

    def test_a_merge_carries_the_collapse(self):
        collapsed = CollapsingLowestDenseStore(max_bins=8)
        for index in range(20):
            collapsed.add(index)
        fresh = CollapsingLowestDenseStore(max_bins=8)
        fresh.merge(collapsed)  # eight buckets: the span fits
        assert fresh.is_collapsed
        assert list(fresh.items()) == list(collapsed.items())
        narrow = CollapsingLowestDenseStore(max_bins=8)
        narrow.add(3)
        narrow.merge(CollapsingLowestDenseStore(max_bins=8))
        assert not narrow.is_collapsed


def uniform_collapse(store: SparseStore, levels: int = 1) -> None:
    store.set_collapsed(*store.sorted_arrays(), levels)


class TestSparseStore:
    def test_uniform_collapse_halves_resolution(self):
        store = SparseStore()
        for index in range(-6, 7):
            store.add(index, 1)
        total = store.total
        uniform_collapse(store)
        assert store.total == total
        # ceil(i/2) for i in [-6, 6] covers [-3, 3].
        assert store.min_index == -3
        assert store.max_index == 3

    def test_uniform_collapse_pairing(self):
        store = SparseStore()
        store.add(1, 10)
        store.add(2, 20)
        store.add(3, 1)
        store.add(4, 2)
        uniform_collapse(store)
        assert dict(store.items()) == {1: 30, 2: 3}

    def test_uniform_collapse_negative_pairing(self):
        store = SparseStore()
        store.add(-1, 5)
        store.add(0, 7)
        store.add(-3, 1)
        store.add(-2, 2)
        uniform_collapse(store)
        # (-1, 0) -> 0 and (-3, -2) -> -1.
        assert dict(store.items()) == {0: 12, -1: 3}

    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 40])
    def test_levels_compose_into_one_map(self, levels):
        rng = np.random.default_rng(levels)
        store = SparseStore()
        for index in rng.integers(-500, 500, 300).tolist():
            store.add(index, 1 + index % 3)
        stepped = store.copy()
        for _ in range(levels):
            uniform_collapse(stepped)
        uniform_collapse(store, levels)
        assert list(store.items()) == list(stepped.items())
        assert store.total == stepped.total
        assert collapsed_indices(np.array([-5, -4, 0, 4, 5]), 2).tolist() == [
            -1, -1, 0, 1, 2,
        ]

    def test_collapsing_an_empty_store(self):
        store = SparseStore()
        uniform_collapse(store, 3)
        assert store.is_empty and store.num_buckets == 0

    def test_sorted_arrays_after_scalar_adds(self):
        store = SparseStore()
        for index in (5, -2, 9, 0, -7):
            store.add(index, index + 10)
        indices, counts = store.sorted_arrays()
        assert list(zip(indices.tolist(), counts.tolist())) == list(
            store.items()
        )

    def test_first_batch_builds_the_dict_the_walk_built(self):
        indices = np.random.default_rng(6).integers(-40, 40, 500)
        store = SparseStore()
        store.add_batch(indices)
        walked: dict[int, int] = {}
        unique, counts = np.unique(indices, return_counts=True)
        for index, count in zip(unique.tolist(), counts.tolist()):
            walked[index] = walked.get(index, 0) + count
        # Same pairs in the same insertion order.
        assert list(store._buckets.items()) == list(walked.items())
        assert store.total == indices.size

    def test_size_accounts_three_numbers_per_bucket(self):
        store = SparseStore()
        for index in range(10):
            store.add(index)
        assert store.size_bytes() == 24 * 10 + 8
