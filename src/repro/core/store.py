"""Bucket stores backing DDSketch and UDDSketch.

A store maps integer bucket indices (produced by
:class:`repro.core.mapping.LogarithmicMapping`) to counts.  Three
implementations mirror the ones discussed in the paper:

* :class:`DenseStore` — an unbounded contiguous array, DataDog's
  "unbounded dense store" used for the paper's DDSketch accuracy results.
* :class:`CollapsingLowestDenseStore` — a dense store capped at
  ``max_bins`` buckets that collapses the lowest-indexed buckets when it
  runs out of room (the bounded DDSketch variant of Sec 3.3).
* :class:`SparseStore` — the non-empty buckets as sorted arrays, costed
  as the map-based UDDSketch implementation (three numbers per bucket)
  whose higher memory cost the paper's Table 3 reports.

Queries read a store through a :class:`BucketView`, which the sketch
keeps until the store changes.  A dense store shifts a batch's indices
in this thread's scratch work array (:func:`repro.core.base.work_array`).
:func:`bucketed` counts a batch of indices into sorted arrays with one
``bincount`` over their span, in the same work array, collapsing them
first for UDDSketch when the span is wider than :data:`COUNT_SLOTS`; a
sparse store's batch that no bincount covers is sorted instead.
:func:`united` sums two stores' sorted arrays, for a sparse store's
batch and merge and for UDDSketch, which collapses before a store
takes a bucket.
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

#: Slots of the one ``bincount`` that counts a batch (:func:`bucketed`):
#: 64 KB of counts, under glibc's 128 KB mmap threshold, so a batch
#: faults no fresh pages, and 8x the paper's 1,024-bucket budget.
COUNT_SLOTS = 1 << 13

#: Buckets as ascending, distinct ``(indices, counts)`` int64 arrays.
Buckets = tuple[np.ndarray, np.ndarray]

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False
#: The buckets of an empty store, shared and read-only.
NO_BUCKETS: Buckets = (_EMPTY, _EMPTY)


def collapsed_indices(indices: np.ndarray, levels: int) -> np.ndarray:
    """Bucket indices after *levels* uniform collapses (UDDSketch).

    One collapse maps ``i`` to ``ceil(i / 2)``, and for integers
    ``ceil(ceil(i / 2) / 2) == ceil(i / 4)``, so *levels* collapses are
    the one map ``ceil(i / 2**levels)``.  The arithmetic shift floors,
    which makes ``(i + 2**levels - 1) >> levels`` that ceiling for
    negative indices too.  The map is monotone: sorted in, sorted out.
    """
    return (indices + ((1 << levels) - 1)) >> levels


def collapsed(indices: np.ndarray, counts: np.ndarray, levels: int) -> Buckets:
    """The buckets *indices*/*counts* after *levels* uniform collapses:
    the same arrays for none."""
    if not levels or not indices.size:
        return indices, counts
    return _summed(collapsed_indices(indices, levels), counts)


def bucketed(
    indices: np.ndarray, collapse: bool = False
) -> tuple[int, Buckets]:
    """The buckets of the index batch *indices* (int64), as sorted
    arrays, and the collapses they went through.

    Without *collapse* those are none: a batch whose span fits
    :data:`COUNT_SLOTS` is counted by one ``bincount`` over it, and a
    wider one is sorted.  With *collapse* the batch first goes through
    the fewest collapses that bring its span within
    :data:`COUNT_SLOTS`, and is always counted.  The collapse and the
    shift to the lowest index are one add and one shift in this
    thread's scratch work array, so only the counts are allocated.
    """
    lo, hi = int(np.minimum.reduce(indices)), int(np.maximum.reduce(indices))
    levels = 0
    while hi - lo >= COUNT_SLOTS:
        if not collapse:
            return 0, np.unique(indices, return_counts=True)
        lo, hi, levels = (lo + 1) >> 1, (hi + 1) >> 1, levels + 1
    # ceil(i / 2**levels) - lo, with lo's multiple of 2**levels taken
    # off before the shift floors.
    shifted = np.add(
        indices, ((1 << levels) - 1) - (lo << levels),
        out=work_array(SCRATCH, indices.size, np.int64),
    )
    if levels:
        np.right_shift(shifted, levels, out=shifted)
    counts = np.bincount(shifted)
    filled = np.flatnonzero(counts)
    return levels, (filled + lo, counts[filled])


def distinct_sorted(indices: np.ndarray) -> int:
    """Number of distinct values in an ascending array."""
    if not indices.size:
        return 0
    return int(np.count_nonzero(np.diff(indices))) + 1


def united(ours: Buckets, theirs: Buckets) -> Buckets:
    """The buckets of both pairs, summed per index: new arrays, or the
    one pair that is not empty."""
    if not theirs[0].size:
        return ours
    if not ours[0].size:
        return theirs
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

    def items(self) -> Iterator[tuple[int, int]]:
        """``(index, count)`` pairs for non-empty buckets, ascending."""
        indices, counts = self.sorted_arrays()
        return zip(indices.tolist(), counts.tolist())

    @abc.abstractmethod
    def sorted_arrays(self) -> Buckets:
        """Non-empty bucket indices ascending, with their counts (int64
        arrays the caller must not write to)."""

    @abc.abstractmethod
    def merge(self, other: "BucketStore") -> None:
        """Add every bucket of *other* into this store."""

    def view(self, descending: bool = False) -> BucketView:
        """The buckets as one :class:`BucketView`, walked lowest index
        first, or highest first with *descending* (the mirrored store of
        negative values)."""
        indices, counts = self.sorted_arrays()
        if descending:
            return BucketView(counts[::-1], step=-1, keys=indices[::-1])
        return BucketView(counts, keys=indices)

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
    def min_index(self) -> int:
        """Lowest non-empty bucket index."""
        self._require_nonempty()
        return int(self.sorted_arrays()[0][0])

    @property
    def max_index(self) -> int:
        """Highest non-empty bucket index."""
        self._require_nonempty()
        return int(self.sorted_arrays()[0][-1])

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

    def sorted_arrays(self) -> Buckets:
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
    """Read-only sorted arrays, costed as the authors' map: three numbers
    (map slot, index, count) per bucket, which is why UDDSketch tops
    Table 3.

    A scalar add only notes its count in a small dict, which the next
    read folds in.  The arrays and that dict are one tuple, replaced in
    one assignment, so two reads racing on one store fold the same adds
    into the same arrays, and neither folds them twice.  Arrays are
    replaced, never written, so a copy and an earlier
    :class:`BucketView` can share them.
    """

    BYTES_PER_BUCKET = 24

    def __init__(self) -> None:
        # The folded buckets, and the scalar adds not yet folded in.
        self._held: tuple[np.ndarray, np.ndarray, dict[int, int]] = (
            *NO_BUCKETS, {}
        )
        self._total = 0

    def add(self, index: int, count: int = 1) -> None:
        if count < 0:
            raise InvalidValueError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        adds = self._held[2]
        adds[index] = adds.get(index, 0) + count
        self._total += count

    def add_batch(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            self._hold(*united(self.sorted_arrays(), bucketed(indices)[1]),
                       self._total + indices.size)

    def merge(self, other: BucketStore) -> None:
        """Add *other*'s buckets: its sorted arrays and ours, summed per
        index in one stable sort."""
        if not other.is_empty:
            self._hold(*united(self.sorted_arrays(), other.sorted_arrays()),
                       self._total + other.total)

    def set_collapsed(
        self, indices: np.ndarray, counts: np.ndarray, levels: int
    ) -> None:
        """Hold the buckets *indices*/*counts* (as :meth:`sorted_arrays`
        returns them) after *levels* uniform collapses, in one pass.

        A uniform collapse folds every adjacent pair ``(2j-1, 2j) -> j``,
        consistent with squaring gamma in the value mapping (Sec 3.4);
        :func:`collapsed_indices` composes *levels* of them into one map.
        """
        self._hold(*collapsed(indices, counts, levels), int(counts.sum()))

    def _hold(
        self, indices: np.ndarray, counts: np.ndarray, total: int
    ) -> None:
        """Hold exactly the buckets *indices*/*counts* (ascending,
        distinct, counts positive, summing to *total*), read-only."""
        indices.flags.writeable = False
        counts.flags.writeable = False
        self._held = indices, counts, {}
        self._total = total

    def sorted_arrays(self) -> Buckets:
        indices, counts, adds = self._held
        if adds:
            indices, counts = _folded(indices, counts, adds)
            self._held = indices, counts, {}
        return indices, counts

    def holds(self, index: int) -> bool:
        """Whether bucket *index* is non-empty, found without a fold."""
        indices, _, adds = self._held
        if index in adds:
            return True
        at = int(indices.searchsorted(index))
        return at < indices.size and int(indices[at]) == index

    @property
    def total(self) -> int:
        return self._total

    @property
    def num_buckets(self) -> int:
        # Counted without a fold: the noted adds the arrays lack are new.
        indices, _, adds = self._held
        if not adds or not indices.size:
            return indices.size + len(adds)
        noted = np.fromiter(adds, dtype=np.int64, count=len(adds))
        held = indices.take(indices.searchsorted(noted), mode="clip")
        return int(indices.size + np.count_nonzero(held != noted))

    def copy(self) -> "SparseStore":
        clone = SparseStore()
        indices, counts, adds = self._held
        clone._held = indices, counts, dict(adds)
        clone._total = self._total
        return clone

    def size_bytes(self) -> int:
        return self.BYTES_PER_BUCKET * self.num_buckets + 8


def _folded(
    indices: np.ndarray, counts: np.ndarray, adds: dict[int, int]
) -> Buckets:
    """Read-only arrays of the buckets *indices*/*counts* with the counts
    *adds* added: held keys in a copy, new ones inserted."""
    keys = sorted(adds)
    noted = np.fromiter(keys, dtype=np.int64, count=len(keys))
    values = np.fromiter(map(adds.__getitem__, keys), np.int64, len(keys))
    if indices.size:
        at = indices.searchsorted(noted)
        held = indices.take(at, mode="clip") == noted
        counts = counts.copy()
        counts[at[held]] += values[held]
        new = ~held
        if new.any():
            indices = np.insert(indices, at[new], noted[new])
            counts = np.insert(counts, at[new], values[new])
    else:
        indices, counts = noted, values
    indices.flags.writeable = False
    counts.flags.writeable = False
    return indices, counts


def _summed(indices: np.ndarray, counts: np.ndarray) -> Buckets:
    """Each distinct index of the ascending *indices* once, with the sum
    of its *counts*."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1))
    return indices[starts], np.add.reduceat(counts, starts)
