"""Bucket stores backing DDSketch and UDDSketch.

A store maps integer bucket indices (produced by
:class:`repro.core.mapping.LogarithmicMapping`) to counts.  Three
implementations mirror the ones discussed in the paper:

* :class:`DenseStore` — an unbounded contiguous array, DataDog's
  "unbounded dense store" used for the paper's DDSketch accuracy results.
* :class:`CollapsingLowestDenseStore` — a dense store capped at
  ``max_bins`` buckets that collapses the lowest-indexed buckets when it
  runs out of room (the bounded DDSketch variant of Sec 3.3).
* :class:`SparseStore` — a hash-map store holding three numbers per
  bucket, mirroring the map-based UDDSketch implementation whose higher
  memory cost the paper's Table 3 reports.  Beside the map it keeps the
  sorted arrays that its batch, collapse and merge paths compute.

Queries read a store through a :class:`BucketView`, which the sketch
keeps until the store changes.  A dense store shifts a batch's indices
in this thread's scratch work array (:func:`repro.core.base.work_array`).
:func:`united` sums two stores' sorted arrays, for ``merge`` and for
UDDSketch, which collapses a large batch before a store maps it.
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.core.base import SCRATCH, work_array
from repro.errors import EmptySketchError, InvalidValueError

#: Dense stores grow in chunks of this many buckets (the paper notes the
#: unbounded dense store starts at 64 buckets).
CHUNK_SIZE = 64

#: The bucket arrays of an empty store, shared and read-only.
_NO_BUCKETS = np.zeros(0, dtype=np.int64)
_NO_BUCKETS.flags.writeable = False


def collapsed_indices(indices: np.ndarray, levels: int) -> np.ndarray:
    """Bucket indices after *levels* uniform collapses (UDDSketch).

    One collapse maps ``i`` to ``ceil(i / 2)``, and for integers
    ``ceil(ceil(i / 2) / 2) == ceil(i / 4)``, so *levels* collapses are
    the one map ``ceil(i / 2**levels)``.  The arithmetic shift floors,
    which makes ``(i + 2**levels - 1) >> levels`` that ceiling for
    negative indices too.  The map is monotone: sorted in, sorted out.
    """
    return (indices + ((1 << levels) - 1)) >> levels


def distinct_sorted(indices: np.ndarray) -> int:
    """Number of distinct values in an ascending array."""
    if not indices.size:
        return 0
    return int(np.count_nonzero(np.diff(indices))) + 1


def united(
    ours: tuple[np.ndarray, np.ndarray], theirs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The buckets of two ``(indices, counts)`` pairs, ascending and
    distinct, summed per index, in new arrays."""
    indices = np.concatenate((ours[0], theirs[0]))
    # Two ascending runs: the stable sort (timsort) merges them.
    order = indices.argsort(kind="stable")
    return _summed(
        indices[order], np.concatenate((ours[1], theirs[1]))[order]
    )


class BucketView:
    """A store's buckets in walk order with their running counts.

    Built on a read's first use and kept by the sketch until a store
    changes (DESIGN §21).  The bucket holding the item of 0-based
    rank ``r`` is the first whose running count exceeds ``r`` — the
    cumulative walk of Sec 3.3 as one ``searchsorted``.  A dense store's
    keys stay implicit (slot ``p`` is key ``first + step * p``, empty
    slots included, which never end a walk); a sparse store lists its
    keys in walk order.  ``step`` is ``1`` for a lowest-key-first walk
    and ``-1`` for a highest-key-first one.
    """

    __slots__ = ("_cumulative", "_keys", "_first", "_step", "_last")

    def __init__(
        self,
        counts: np.ndarray,
        first: int = 0,
        step: int = 1,
        keys: np.ndarray | None = None,
    ) -> None:
        self._cumulative = cumulative = np.cumsum(counts)
        self._keys = keys
        self._first = first
        self._step = step
        # Position of the last bucket a walk can stop at; -1 when the
        # store holds nothing.
        self._last = (
            cumulative.size - 1 if cumulative.size and cumulative[-1] else -1
        )

    def key_at(self, rank: float) -> int:
        """Key of the bucket holding the item of 0-based *rank*; a rank
        past the total stops at the last bucket of the walk."""
        last = self._last
        if last < 0:
            raise EmptySketchError("bucket store is empty")
        pos = min(int(self._cumulative.searchsorted(rank, "right")), last)
        if self._keys is None:
            return self._first + self._step * pos
        return int(self._keys[pos])

    def count_through(self, key: int) -> int:
        """Items in the buckets the walk passes up to and including
        *key* (keys ``<= key`` ascending, ``>= key`` descending)."""
        step = self._step
        if self._keys is None:
            walked = min(
                max((key - self._first) * step + 1, 0), self._cumulative.size
            )
        else:
            walked = int(np.count_nonzero(self._keys * step <= key * step))
        return int(self._cumulative[walked - 1]) if walked else 0


class BucketStore(abc.ABC):
    """Mapping from bucket index to count, ordered by index."""

    #: Whether low buckets were folded into a floor (bounded stores).
    is_collapsed = False

    @abc.abstractmethod
    def add(self, index: int, count: int = 1) -> None:
        """Add *count* occurrences to bucket *index*."""

    @abc.abstractmethod
    def add_batch(self, indices: np.ndarray) -> None:
        """Add one occurrence for every index in *indices*."""

    @abc.abstractmethod
    def items(self) -> Iterator[tuple[int, int]]:
        """Yield ``(index, count)`` pairs for non-empty buckets, ascending."""

    @abc.abstractmethod
    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Non-empty bucket indices ascending, with their counts (int64
        arrays the caller must not write to)."""

    @abc.abstractmethod
    def merge(self, other: "BucketStore") -> None:
        """Add every bucket of *other* into this store."""

    @abc.abstractmethod
    def view(self, descending: bool = False) -> BucketView:
        """The buckets as one :class:`BucketView`, walked lowest index
        first, or highest first with *descending* (the mirrored store of
        negative values)."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Bytes of numeric payload retained (8 bytes per number)."""

    @abc.abstractmethod
    def copy(self) -> "BucketStore":
        """Deep copy of the store."""

    @property
    @abc.abstractmethod
    def total(self) -> int:
        """Sum of all bucket counts."""

    @property
    @abc.abstractmethod
    def num_buckets(self) -> int:
        """Number of non-empty buckets."""

    @property
    def is_empty(self) -> bool:
        return self.total == 0

    @property
    @abc.abstractmethod
    def min_index(self) -> int:
        """Lowest non-empty bucket index."""

    @property
    @abc.abstractmethod
    def max_index(self) -> int:
        """Highest non-empty bucket index."""

    def _require_nonempty(self) -> None:
        if self.is_empty:
            raise EmptySketchError(f"{type(self).__name__} is empty")


class DenseStore(BucketStore):
    """Unbounded contiguous-array store.

    Keeps a numpy ``int64`` array of counts plus the index of its first
    slot; the array grows in :data:`CHUNK_SIZE` steps as the observed
    index range widens.  All hot paths (batch add, rank walk, merge) are
    vectorised.
    """

    def __init__(self) -> None:
        self._counts = np.zeros(0, dtype=np.int64)
        self._offset = 0
        self._total = 0

    # -- ingestion ------------------------------------------------------

    def add(self, index: int, count: int = 1) -> None:
        if count < 0:
            raise InvalidValueError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        pos = self._normalize(index)
        self._counts[pos] += count
        self._total += count

    def add_batch(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        lo = int(np.minimum.reduce(indices))
        self._extend_range(lo, int(np.maximum.reduce(indices)))
        # After extension every index at or above the floor has a slot;
        # a collapsed store folds the ones below it into its lowest slot.
        floor = max(lo, self._offset)
        shifted = np.subtract(
            indices, floor, out=work_array(SCRATCH, indices.size, np.int64)
        )
        if lo < floor:
            np.maximum(shifted, 0, out=shifted)
        # One bincount from the floor up aggregates in C.
        counts = np.bincount(shifted)
        start = floor - self._offset
        self._counts[start : start + counts.size] += counts
        self._total += int(indices.size)

    def _normalize(self, index: int) -> int:
        """Ensure a slot exists for *index* and return its array position."""
        if (
            self._counts.size == 0
            or index < self._offset
            or index >= self._offset + self._counts.size
        ):
            self._extend_range(index, index)
        return index - self._offset

    def _extend_range(self, lo: int, hi: int) -> None:
        """Grow the backing array to cover ``[lo, hi]``."""
        if self._counts.size == 0:
            size = self._round_up(hi - lo + 1)
            self._counts = np.zeros(size, dtype=np.int64)
            self._offset = lo
            return
        new_lo = min(lo, self._offset)
        new_hi = max(hi, self._offset + self._counts.size - 1)
        if new_lo == self._offset and new_hi < self._offset + self._counts.size:
            return
        size = self._round_up(new_hi - new_lo + 1)
        counts = np.zeros(size, dtype=np.int64)
        shift = self._offset - new_lo
        counts[shift : shift + self._counts.size] = self._counts
        self._counts = counts
        self._offset = new_lo

    @staticmethod
    def _round_up(size: int) -> int:
        return ((size + CHUNK_SIZE - 1) // CHUNK_SIZE) * CHUNK_SIZE

    # -- queries --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        nonzero = np.nonzero(self._counts)[0]
        for pos in nonzero:
            yield int(pos) + self._offset, int(self._counts[pos])

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        filled = np.flatnonzero(self._counts)
        return filled + self._offset, self._counts[filled]

    def view(self, descending: bool = False) -> BucketView:
        # The cumsum runs over the slot array: extracting the non-empty
        # slots first would cost more than it saves on a one-q query.
        counts = self._counts
        if descending:
            return BucketView(
                counts[::-1], first=self._offset + counts.size - 1, step=-1
            )
        return BucketView(counts, first=self._offset)

    @property
    def total(self) -> int:
        return self._total

    @property
    def num_buckets(self) -> int:
        return int(np.count_nonzero(self._counts))

    @property
    def min_index(self) -> int:
        self._require_nonempty()
        return int(np.nonzero(self._counts)[0][0]) + self._offset

    @property
    def max_index(self) -> int:
        self._require_nonempty()
        return int(np.nonzero(self._counts)[0][-1]) + self._offset

    # -- maintenance ----------------------------------------------------

    def merge(self, other: BucketStore) -> None:
        if other.is_empty:
            return
        if isinstance(other, DenseStore):
            lo_index = other.min_index
            hi_index = other.max_index
            self._extend_range(lo_index, hi_index)
            # A collapsing store may refuse to extend below its floor;
            # fold that part of *other* (maybe all of it) into the
            # floor bucket.
            if lo_index < self._offset:
                src_lo = lo_index - other._offset
                src_hi = min(self._offset, hi_index + 1) - other._offset
                self._counts[0] += other._counts[src_lo:src_hi].sum()
                lo_index = self._offset
            if lo_index <= hi_index:
                src_lo = lo_index - other._offset
                src_hi = hi_index - other._offset + 1
                dst_lo = lo_index - self._offset
                self._counts[dst_lo : dst_lo + (src_hi - src_lo)] += (
                    other._counts[src_lo:src_hi]
                )
            self._total += other._total
        else:
            for index, count in other.items():
                self.add(index, count)

    def copy(self) -> "DenseStore":
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._counts = self._counts.copy()
        return clone

    def size_bytes(self) -> int:
        # The retained bucket span plus offset/total bookkeeping words.
        # Counting the logical span (not the allocated array, whose
        # round-up slack depends on growth history) keeps the figure a
        # deterministic function of the ingested data, so scalar- and
        # batch-fed stores report identically.
        if self._total == 0:
            return 2 * 8
        nonzero = np.nonzero(self._counts)[0]
        span = int(nonzero[-1]) - int(nonzero[0]) + 1
        return 8 * span + 2 * 8


class CollapsingLowestDenseStore(DenseStore):
    """Dense store bounded at *max_bins* buckets.

    When the observed index range exceeds the budget the lowest buckets
    are folded into the lowest retained bucket, trading away accuracy of
    the lower quantiles exactly as the bounded DDSketch variant described
    in Sec 3.3 does.
    """

    def __init__(self, max_bins: int) -> None:
        if max_bins < 1:
            raise InvalidValueError(f"max_bins must be >= 1, got {max_bins!r}")
        super().__init__()
        self.max_bins = int(max_bins)
        self.is_collapsed = False

    def _extend_range(self, lo: int, hi: int) -> None:
        if self.is_collapsed:
            # Never re-open room below the collapse floor.
            lo = max(lo, self._offset)
            hi = max(hi, lo)
        if self._total == 0:
            size = min(self._round_up(hi - lo + 1), self.max_bins)
            self._counts = np.zeros(size, dtype=np.int64)
            if hi - lo + 1 > size:
                # Anchor so the requested range's top fits.
                self._offset = hi - size + 1
                self.is_collapsed = True
            else:
                self._offset = lo
            return
        # The span that matters is the requested range united with the
        # *non-empty* buckets — not the allocated array edges, whose
        # round-up slack would otherwise inflate it.
        new_lo = min(lo, self.min_index)
        new_hi = max(hi, self.max_index)
        span = new_hi - new_lo + 1
        if span <= self.max_bins:
            if (
                new_lo >= self._offset
                and new_hi < self._offset + self._counts.size
            ):
                return  # already covered
            size = min(self._round_up(span), self.max_bins)
            counts = np.zeros(size, dtype=np.int64)
            src_lo = self.min_index - self._offset
            src_hi = self.max_index - self._offset + 1
            dst_lo = self.min_index - new_lo
            counts[dst_lo : dst_lo + (src_hi - src_lo)] = (
                self._counts[src_lo:src_hi]
            )
            self._counts = counts
            self._offset = new_lo
            return
        # Budget exhausted: keep the top max_bins indices and collapse
        # everything below into the new lowest bucket.
        keep_lo = new_hi - self.max_bins + 1
        counts = np.zeros(self.max_bins, dtype=np.int64)
        for index, count in self.items():
            target = max(index, keep_lo)
            counts[target - keep_lo] += count
        self._counts = counts
        self._offset = keep_lo
        self.is_collapsed = True

    def _normalize(self, index: int) -> int:
        pos = super()._normalize(index)
        if pos < 0:  # below the collapsed floor: fold into lowest bucket
            return 0
        return pos

    def add(self, index: int, count: int = 1) -> None:
        if count < 0:
            raise InvalidValueError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        if (
            self.is_collapsed
            and self._counts.size
            and index < self._offset
        ):
            self._counts[0] += count
            self._total += count
            return
        super().add(index, count)

    def merge(self, other: BucketStore) -> None:
        super().merge(other)
        # Counts *other* folded into its floor stay folded here, so the
        # bound its collapse gave up stays given up, whatever the span.
        if other.is_collapsed:
            self.is_collapsed = True

    def size_bytes(self) -> int:
        return super().size_bytes() + 8  # max_bins word


class SparseStore(BucketStore):
    """Hash-map store: three numbers (map slot, index, count) per bucket.

    Mirrors the map-based UDDSketch implementation the paper evaluates;
    its per-bucket overhead is why UDDSketch tops Table 3.

    Beside the dict the store keeps its buckets as the sorted arrays
    that a batch into an empty store, a collapse and a merge compute
    anyway, so reads, collapses and merges start from them instead of
    reading the dict back.  A scalar add only notes its key; the next
    :meth:`sorted_arrays` folds the noted keys in.  Kept arrays are
    read-only and replaced, never written, so a copy and an earlier
    :class:`BucketView` can share them.
    """

    BYTES_PER_BUCKET = 24

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._total = 0
        # The dict as sorted (indices, counts), apart from the keys in
        # _moved; None when the next read rebuilds them from the dict.
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._moved: set[int] = set()

    def add(self, index: int, count: int = 1) -> None:
        if count < 0:
            raise InvalidValueError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        self._buckets[index] = self._buckets.get(index, 0) + count
        self._total += count
        if self._arrays is not None:
            self._moved.add(index)

    def add_batch(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        buckets = self._buckets
        if indices.size < 32:
            # Tiny batches: a dict walk beats np.unique's sort overhead.
            keys = indices.tolist()
            for index in keys:
                buckets[index] = buckets.get(index, 0) + 1
            if self._arrays is not None:
                self._moved.update(keys)
        else:
            # One sort aggregates duplicates, then one dict update per
            # *distinct* bucket — bounded by the store width, not the
            # batch length.
            unique, counts = np.unique(indices, return_counts=True)
            if buckets:
                for index, count in zip(unique.tolist(), counts.tolist()):
                    buckets[index] = buckets.get(index, 0) + count
                self._arrays = None
            else:
                self._hold(unique, counts)
        self._total += int(indices.size)

    def items(self) -> Iterator[tuple[int, int]]:
        for index in sorted(self._buckets):
            yield index, self._buckets[index]

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # _keep writes the arrays before the keys, so a read racing
        # another read's fold sees fresh arrays with stale keys at worst,
        # and folds those keys again to the same result.
        moved = self._moved
        arrays = self._arrays
        if arrays is not None and not moved:
            return arrays
        if arrays is None or 4 * len(moved) > arrays[0].size:
            return self._keep(*self._dict_arrays())
        return self._keep(*self._fold_moved(*arrays, moved))

    def _dict_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The dict read back into sorted arrays."""
        size = len(self._buckets)
        indices = np.fromiter(self._buckets, dtype=np.int64, count=size)
        counts = np.fromiter(self._buckets.values(), dtype=np.int64, count=size)
        # A store filled by one batch holds its keys in order already.
        if size > 1 and not bool((indices[1:] > indices[:-1]).all()):
            order = np.argsort(indices)
            indices, counts = indices[order], counts[order]
        return indices, counts

    def _fold_moved(
        self, indices: np.ndarray, counts: np.ndarray, moved: set[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The kept arrays with the *moved* keys' counts read from the
        dict: present keys are overwritten in a copy, new ones inserted."""
        keys = sorted(moved)
        noted = np.array(keys, dtype=np.int64)
        values = np.array([self._buckets[key] for key in keys], dtype=np.int64)
        at = indices.searchsorted(noted)
        present = indices.take(at, mode="clip") == noted
        counts = counts.copy()
        counts[at[present]] = values[present]
        new = ~present
        if new.any():
            indices = np.insert(indices, at[new], noted[new])
            counts = np.insert(counts, at[new], values[new])
        return indices, counts

    def _keep(
        self, indices: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keep *indices*/*counts*, read-only, as the dict's arrays."""
        indices.flags.writeable = False
        counts.flags.writeable = False
        self._arrays = arrays = indices, counts
        self._moved = set()
        return arrays

    def _hold(self, indices: np.ndarray, counts: np.ndarray) -> None:
        """Hold exactly the buckets *indices*/*counts* (ascending,
        distinct, counts positive), keeping the arrays."""
        self._buckets = dict(zip(indices.tolist(), counts.tolist()))
        self._keep(indices, counts)

    def view(self, descending: bool = False) -> BucketView:
        indices, counts = self.sorted_arrays()
        if descending:
            return BucketView(counts[::-1], step=-1, keys=indices[::-1])
        return BucketView(counts, keys=indices)

    def merge(self, other: BucketStore) -> None:
        """Add *other*'s buckets: its sorted arrays and ours, summed per
        index in one stable sort, become the kept arrays, and the dict
        takes the new counts of *other*'s keys."""
        if other.is_empty:
            return
        theirs = other.sorted_arrays()
        if not self._buckets:
            self._hold(*theirs)
        else:
            indices, counts = united(self.sorted_arrays(), theirs)
            self._buckets.update(zip(
                theirs[0].tolist(),
                counts[indices.searchsorted(theirs[0])].tolist(),
            ))
            self._keep(indices, counts)
        self._total += other.total

    def set_collapsed(
        self, indices: np.ndarray, counts: np.ndarray, levels: int
    ) -> None:
        """Hold the buckets *indices*/*counts* (as :meth:`sorted_arrays`
        returns them) after *levels* uniform collapses, in one pass.

        A uniform collapse folds every adjacent pair ``(2j-1, 2j) -> j``,
        consistent with squaring gamma in the value mapping (Sec 3.4);
        :func:`collapsed_indices` composes *levels* of them into one map.
        """
        if indices.size:
            indices, counts = _summed(
                collapsed_indices(indices, levels), counts
            )
        else:
            indices = counts = _NO_BUCKETS
        self._hold(indices, counts)
        self._total = int(counts.sum())

    @property
    def total(self) -> int:
        return self._total

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    @property
    def min_index(self) -> int:
        self._require_nonempty()
        return min(self._buckets)

    @property
    def max_index(self) -> int:
        self._require_nonempty()
        return max(self._buckets)

    def copy(self) -> "SparseStore":
        clone = SparseStore()
        clone._buckets = dict(self._buckets)
        clone._total = self._total
        clone._arrays, clone._moved = self._arrays, set(self._moved)
        return clone

    def size_bytes(self) -> int:
        return self.BYTES_PER_BUCKET * len(self._buckets) + 8


def _summed(
    indices: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct index of the ascending *indices* once, with the sum
    of its *counts*."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1))
    return indices[starts], np.add.reduceat(counts, starts)
