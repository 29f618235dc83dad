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
  memory and iteration costs the paper's Sec 4.3/4.4 analysis discusses.

Queries read a store through a :class:`BucketView`, which the sketch
keeps until the store changes.
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.errors import EmptySketchError, InvalidValueError

#: Dense stores grow in chunks of this many buckets (the paper notes the
#: unbounded dense store starts at 64 buckets).
CHUNK_SIZE = 64


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
        lo = int(indices.min())
        hi = int(indices.max())
        self._extend_range(lo, hi)
        # After extension every index has a slot; bincount aggregates in C.
        shifted = indices - self._offset
        self._counts[: shifted.max() + 1] += np.bincount(
            shifted, minlength=int(shifted.max()) + 1
        )
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

    def add_batch(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        self._extend_range(int(indices.min()), int(indices.max()))
        clipped = np.maximum(indices - self._offset, 0)
        self._counts[: clipped.max() + 1] += np.bincount(
            clipped, minlength=int(clipped.max()) + 1
        )
        self._total += int(indices.size)

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
    its per-bucket overhead is why UDDSketch tops Table 3 and why its
    iteration-heavy merge is the slowest in Fig 5c.
    """

    BYTES_PER_BUCKET = 24

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._total = 0

    def add(self, index: int, count: int = 1) -> None:
        if count < 0:
            raise InvalidValueError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        self._buckets[index] = self._buckets.get(index, 0) + count
        self._total += count

    def add_batch(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        buckets = self._buckets
        if indices.size < 32:
            # Tiny batches: a dict walk beats np.unique's sort overhead.
            for index in indices.tolist():
                buckets[index] = buckets.get(index, 0) + 1
        else:
            # One sort aggregates duplicates, then one dict update per
            # *distinct* bucket — bounded by the store width, not the
            # batch length.
            unique, counts = np.unique(indices, return_counts=True)
            if buckets:
                for index, count in zip(unique.tolist(), counts.tolist()):
                    buckets[index] = buckets.get(index, 0) + count
            else:
                self._buckets = dict(zip(unique.tolist(), counts.tolist()))
        self._total += int(indices.size)

    def items(self) -> Iterator[tuple[int, int]]:
        for index in sorted(self._buckets):
            yield index, self._buckets[index]

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Bucket indices ascending, with their counts (int64 arrays)."""
        size = len(self._buckets)
        indices = np.fromiter(self._buckets, dtype=np.int64, count=size)
        counts = np.fromiter(self._buckets.values(), dtype=np.int64, count=size)
        # A store filled by one batch holds its keys in order already.
        if size > 1 and not bool((indices[1:] > indices[:-1]).all()):
            order = np.argsort(indices)
            indices, counts = indices[order], counts[order]
        return indices, counts

    def view(self, descending: bool = False) -> BucketView:
        indices, counts = self.sorted_arrays()
        if descending:
            return BucketView(counts[::-1], step=-1, keys=indices[::-1])
        return BucketView(counts, keys=indices)

    def merge(self, other: BucketStore) -> None:
        for index, count in other.items():
            self.add(index, count)

    def set_collapsed(
        self, indices: np.ndarray, counts: np.ndarray, levels: int
    ) -> None:
        """Hold the buckets *indices*/*counts* (as :meth:`sorted_arrays`
        returns them) after *levels* uniform collapses, in one pass.

        A uniform collapse folds every adjacent pair ``(2j-1, 2j) -> j``,
        consistent with squaring gamma in the value mapping (Sec 3.4);
        :func:`collapsed_indices` composes *levels* of them into one map.
        """
        if not indices.size:
            self._buckets = {}
            self._total = 0
            return
        collapsed = collapsed_indices(indices, levels)
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(collapsed)) + 1)
        )
        self._buckets = dict(zip(
            collapsed[starts].tolist(),
            np.add.reduceat(counts, starts).tolist(),
        ))
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
        return clone

    def size_bytes(self) -> int:
        return self.BYTES_PER_BUCKET * len(self._buckets) + 8
