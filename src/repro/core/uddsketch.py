"""UDDSketch — DDSketch with uniform bucket collapsing (Epicoco et al.,
IEEE Access 2020; Sec 3.4 of the paper).

UDDSketch keeps DDSketch's geometric histogram but, when the bucket
budget is exhausted, collapses *every* adjacent bucket pair instead of
only the lowest pair.  Each collapse squares gamma, degrading the
relative-error guarantee uniformly from ``a`` to ``2a / (1 + a^2)``; the
initial accuracy is therefore chosen tight enough that the guarantee only
reaches the target after the budgeted number of collapses.

A collapse maps bucket ``i`` to ``ceil(i / 2)``, and ``k`` collapses
compose into the single map ``ceil(i / 2**k)``
(:func:`repro.core.store.collapsed_indices`).  Every write settles its
level before a store takes a bucket: a batch's buckets, counted by one
``bincount`` at the level its span allows
(:func:`repro.core.store.bucketed`), the bucket of a scalar update that
the budget cannot fit, and a merge operand (brought to the coarser
level first, arXiv 2101.06758) join the stores' sorted arrays, taken
to the batch's or the operand's level where it is coarser; the sketch
finds the lowest level at which they fit, starting at the level the
indices' span guarantees, and rebuilds each store once.  A budget that
no level meets raises before anything moves.  The mapping, and so
gamma, still advances by one ``collapsed()`` call per level, the same
floats as collapsing one level at a time.

The buckets live in :class:`repro.core.store.SparseStore`'s sorted
arrays, whose ``size_bytes`` charges the map-based store of the paper's
Java port of the authors' C code: that cost model is what puts UDDSketch
above DDSketch in Table 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import BATCH, Guarantee, QuantileSketch, work_array
from repro.core.ddsketch import DDSketch
from repro.core.mapping import (
    MAX_INDEXABLE_VALUE,
    MIN_INDEXABLE_VALUE,
    LogarithmicMapping,
    alpha_after_collapses,
    initial_alpha,
)
from repro.core.store import (
    NO_BUCKETS,
    Buckets,
    SparseStore,
    bucketed,
    collapsed,
    collapsed_indices,
    distinct_sorted,
    united,
)
from repro.errors import IncompatibleSketchError, InvalidValueError

DEFAULT_FINAL_ALPHA = 0.01
DEFAULT_NUM_COLLAPSES = 12
DEFAULT_MAX_BUCKETS = 1024


def _coarsened(
    mapping: LogarithmicMapping, target: LogarithmicMapping
) -> tuple[int, LogarithmicMapping]:
    """The collapses that bring *mapping* to *target*'s accuracy, and the
    mapping they end at (none when *mapping* is not the finer one)."""
    levels = 0
    while mapping.alpha < target.alpha - 1e-15:
        collapsed = mapping.collapsed()
        if collapsed.alpha > target.alpha + 1e-12:
            raise IncompatibleSketchError(
                "sketches have incompatible initial accuracies: "
                f"{mapping.alpha!r} vs {target.alpha!r}"
            )
        mapping, levels = collapsed, levels + 1
    return levels, mapping


class UDDSketch(DDSketch):
    """Uniformly-collapsing DDSketch with a deterministic error guarantee.

    Parameters
    ----------
    final_alpha:
        Relative-error guarantee that must still hold after
        *num_collapses* collapses (the paper uses 0.01).
    num_collapses:
        Collapse budget used to derive the initial accuracy
        ``alpha_0 = tanh(atanh(final_alpha) / 2**num_collapses)``.
    max_buckets:
        Bucket budget that triggers a uniform collapse when exceeded
        (the paper uses 1024).
    alpha0:
        Directly sets the initial accuracy, overriding the
        *final_alpha*/*num_collapses* derivation.
    """

    name = "uddsketch"

    # The constructor always asks DDSketch for sparse stores.
    _positive: SparseStore
    _negative: SparseStore

    def __init__(
        self,
        final_alpha: float = DEFAULT_FINAL_ALPHA,
        num_collapses: int = DEFAULT_NUM_COLLAPSES,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        alpha0: float | None = None,
    ) -> None:
        if max_buckets < 2:
            raise InvalidValueError(
                f"max_buckets must be >= 2, got {max_buckets!r}"
            )
        if alpha0 is None:
            alpha0 = initial_alpha(final_alpha, num_collapses)
        super().__init__(alpha=alpha0, store="sparse")
        self.final_alpha = float(final_alpha)
        self.collapse_budget = int(num_collapses)
        self.max_buckets = int(max_buckets)
        self._initial_alpha = float(alpha0)
        self._collapses = 0
        # Scalar adds that surely fit the budget: _settle and an exact
        # count set it, and each add spends one, new bucket or not.
        self._slack = 0

    # ------------------------------------------------------------------
    # Ingestion (DDSketch paths, collapsed before the stores take them)
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        # DDSketch.update's sign split, not a call to it: that method
        # stays a plain add for the one-level reference in
        # tests/core/test_collapse_levels.py, which calls it.
        value = float(value)
        if MIN_INDEXABLE_VALUE < value <= MAX_INDEXABLE_VALUE:
            store, index = self._positive, self._mapping.index(value)
        elif -MAX_INDEXABLE_VALUE <= value < -MIN_INDEXABLE_VALUE:
            store, index = self._negative, self._mapping.index(-value)
        else:  # a zero, or a value DDSketch refuses
            super().update(value)
            return
        if self._slack:
            self._slack -= 1
        elif not store.holds(index):
            # A new bucket: count the buckets exactly.
            slack = self.max_buckets - self.num_buckets
            if slack <= 0:
                bucket = np.array([index], np.int64), np.ones(1, np.int64)
                self._settle(*(
                    united(mine.sorted_arrays(), bucket if mine is store
                           else NO_BUCKETS)
                    for mine in (self._positive, self._negative)
                ))
                self._observe(value)
                return
            self._slack = slack - 1
        store.add(index)
        self._observe(value)
        self._drop_query_caches()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        # DDSketch's batch path, with the stores' add replaced: each
        # batch reaches the stores as sorted arrays, collapsed first.
        self._ingest(values, self._add_collapsed)

    def _add_collapsed(
        self, positive: np.ndarray, negative: np.ndarray
    ) -> None:
        """Join each store's buckets with the batch's, as sorted arrays,
        and rebuild each store once, at the level where they all fit: no
        store holds a bucket that the collapse folds away, and a batch
        that no level fits raises before any store moves.

        Each sign's batch is counted at the level its span allows
        (:func:`repro.core.store.bucketed`), and both go to the coarser
        of the two, ``levels``.  Collapses never add buckets, so when
        the batch alone overfills the budget there, every finer level
        overfills it too, with the stores' buckets or without: the
        stores join it at ``levels``, and the sketch ends at the level
        it would reach from the one it is at.  A batch that fits there
        might fit finer: it is bucketed where it is.
        """
        signs = (positive, negative)
        counted = [self._bucketed(values, collapse=True) for values in signs]
        levels = max(level for level, _ in counted)
        batch = [
            collapsed(*buckets, levels - level) for level, buckets in counted
        ]
        size = sum(indices.size for indices, _ in batch)
        if levels and size <= self.max_buckets:
            levels = 0
            batch = [self._bucketed(values)[1] for values in signs]
        self._settle(*(
            united(collapsed(*store.sorted_arrays(), levels), buckets)
            for store, buckets in zip((self._positive, self._negative), batch)
        ), levels)

    def _bucketed(
        self, values: np.ndarray, collapse: bool = False
    ) -> tuple[int, Buckets]:
        """The buckets of *values* (magnitudes in the indexable range)
        and the collapses they went through, as
        :func:`repro.core.store.bucketed` gives them."""
        if not values.size:
            return 0, NO_BUCKETS
        out = work_array(BATCH, values.size, np.int64)
        return bucketed(self._mapping.index_batch(values, out=out), collapse)

    def _settle(
        self, positive: Buckets, negative: Buckets, levels: int = 0
    ) -> None:
        """Hold the buckets *positive* and *negative*, sorted arrays
        *levels* collapses past the current mapping, at the lowest
        further level at which they fit, rebuilding each store once.  An
        empty store stays as it is, and so does one that is handed its
        own arrays for no collapse."""
        mapping, more = self._mapping, 0
        for _ in range(levels):
            mapping = mapping.collapsed()
        if positive[0].size + negative[0].size > self.max_buckets:
            found = self._collapse_levels(positive[0], negative[0])
            # The mapping refuses an alpha that has rounded to 1, so a
            # budget that no level meets, or one met only past that
            # level, raises here, before any store has moved.
            while found is None:
                mapping = mapping.collapsed()
            more = found
            for _ in range(more):
                mapping = mapping.collapsed()
        for store, arrays in (
            (self._positive, positive), (self._negative, negative)
        ):
            if arrays[0].size and (
                more or arrays[0] is not store.sorted_arrays()[0]
            ):
                store.set_collapsed(*arrays, more)
        self._mapping = mapping
        self._collapses += levels + more
        self._slack = self.max_buckets - self.num_buckets
        self._drop_query_caches()

    def _collapse_levels(
        self, positive: np.ndarray, negative: np.ndarray
    ) -> int | None:
        """The fewest collapses, at least one, after which the buckets
        at the sorted indices *positive* and *negative* fit the budget;
        None when no number of collapses does.

        Collapses never add buckets, so the search starts at a level
        known to fit and walks down while the next lower one fits.
        """
        stores = [
            indices for indices in (positive, negative) if indices.size
        ]

        def fits(levels: int) -> bool:
            return sum(
                distinct_sorted(collapsed_indices(indices, levels))
                for indices in stores
            ) <= self.max_buckets

        if 2 * len(stores) <= self.max_buckets:
            # After L collapses, a store whose indices span s holds at
            # most (s >> L) + 2 buckets.
            spans = [int(indices[-1] - indices[0]) for indices in stores]
            levels = 1
            while sum((span >> levels) + 2 for span in spans) \
                    > self.max_buckets:
                levels += 1
        else:
            # Two stores and a budget of 2 or 3.  After this many
            # collapses every index is 0 or 1, and more change nothing.
            levels = max(
                1,
                *(
                    max(-int(indices[0]), int(indices[-1])).bit_length()
                    for indices in stores
                ),
            )
            if not fits(levels):
                return None
        while levels > 1 and fits(levels - 1):
            levels -= 1
        return levels

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        # Align collapse levels: the coarser sketch wins, so the finer
        # one's arrays are collapsed to its level.  Both levels are
        # settled before either sketch moves, so an incompatible pair,
        # or a union that no level fits, leaves us unchanged.
        levels, mapping = _coarsened(self._mapping, other._mapping)
        other_levels, other_mapping = _coarsened(other._mapping, mapping)
        mapping.require_compatible(other_mapping)
        self._settle(*(
            united(collapsed(*mine.sorted_arrays(), levels),
                   collapsed(*theirs.sorted_arrays(), other_levels))
            for mine, theirs in (
                (self._positive, other._positive),
                (self._negative, other._negative),
            )
        ), levels)
        self._zero_count += other._zero_count
        self._merge_bookkeeping(other)

    def copy(self) -> "UDDSketch":
        clone = UDDSketch(
            final_alpha=self.final_alpha,
            num_collapses=self.collapse_budget,
            max_buckets=self.max_buckets,
            alpha0=self._initial_alpha,
        )
        clone._mapping = self._mapping
        clone._positive = self._positive.copy()
        clone._negative = self._negative.copy()
        clone._zero_count = self._zero_count
        clone._collapses = self._collapses
        clone._count = self._count
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_collapses(self) -> int:
        """Uniform collapses performed so far."""
        return self._collapses

    @property
    def initial_alpha(self) -> float:
        """Accuracy the sketch started with, before any collapse."""
        return self._initial_alpha

    def guarantee(self) -> Guarantee:
        """Relative error ``tanh(atanh(alpha0) * 2**collapses)`` (Epicoco
        et al., arXiv 2004.08604).  Until the budgeted collapses have
        happened it is *tighter* than ``final_alpha``, which is why
        UDDSketch's measured accuracy beats its nominal threshold
        throughout Sec 4.5."""
        return Guarantee(
            "relative",
            alpha_after_collapses(self._initial_alpha, self._collapses),
        )

    def size_bytes(self) -> int:
        # DDSketch payload plus the collapse bookkeeping words.
        return super().size_bytes() + 3 * 8
