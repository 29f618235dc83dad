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
(:func:`repro.core.store.collapsed_indices`).  So however many levels a
batch needs — a fresh 5,000-value window pane at the paper's
``alpha_0 ~ 2.4e-6`` needs about ten — the sketch finds the lowest level
at which both stores fit the budget on their sorted indices and rebuilds
each store once; ``merge`` brings the finer operand to the coarser level
the same way.  The search starts at the level the indices' span
guarantees to fit and walks down, so it counts buckets at two or three
levels, not ten.  The mapping, and so gamma, still advances by one
``collapsed()`` call per level, the same floats as collapsing one level
at a time.

Following the paper's Java port of the authors' C code, the bucket store
is map-based (:class:`repro.core.store.SparseStore`), which is what drives
UDDSketch's higher memory footprint (Table 3) relative to DDSketch.  The
store keeps its buckets' sorted arrays beside the map, so the collapse
check, the collapse, ``merge`` and the reads start from them.  A batch
collapses before any store maps it: its sorted indices join the
stores' arrays, the level is settled on them, and each store maps only
its collapsed buckets.  A merge still writes the operand's keys
into the map and may collapse after it, where DDSketch's dense merge is
one array addition (Fig 5c).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import BATCH, Guarantee, QuantileSketch, work_array
from repro.core.ddsketch import DDSketch
from repro.core.mapping import (
    LogarithmicMapping,
    alpha_after_collapses,
    initial_alpha,
)
from repro.core.store import (
    SparseStore,
    collapsed_indices,
    distinct_sorted,
    united,
)
from repro.errors import IncompatibleSketchError, InvalidValueError

DEFAULT_FINAL_ALPHA = 0.01
DEFAULT_NUM_COLLAPSES = 12
DEFAULT_MAX_BUCKETS = 1024

_Arrays = tuple[np.ndarray, np.ndarray]


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

    # ------------------------------------------------------------------
    # Ingestion (DDSketch paths plus the collapse check)
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        super().update(value)
        self._collapse_if_needed()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        # DDSketch's batch path, with the stores' add replaced: each
        # batch reaches the stores as sorted arrays, collapsed first.
        self._ingest(values, self._add_collapsed)

    def _add_collapsed(
        self, positive: np.ndarray, negative: np.ndarray
    ) -> None:
        """Join each store's buckets with the batch's, as sorted arrays,
        and rebuild each store once, at the level where they all fit: no
        store maps a bucket that the collapse folds away, and a batch
        that no level fits raises before any store moves."""
        self._settle(
            self._joined(self._positive, positive),
            self._joined(self._negative, negative),
        )

    def _joined(self, store: SparseStore, values: np.ndarray) -> _Arrays:
        """The sorted arrays of *store* with the buckets of *values*
        (magnitudes in the indexable range) added."""
        held = store.sorted_arrays()
        if not values.size:
            return held
        indices = self._mapping.index_batch(
            values, out=work_array(BATCH, values.size, np.int64)
        )
        batch = np.unique(indices, return_counts=True)
        return united(held, batch) if held[0].size else batch

    def _collapse_if_needed(self) -> None:
        """Collapse to the lowest level at which the buckets fit."""
        if self.num_buckets > self.max_buckets:
            self._settle(
                self._positive.sorted_arrays(), self._negative.sorted_arrays()
            )

    def _settle(self, positive: _Arrays, negative: _Arrays) -> None:
        """Hold the buckets *positive* and *negative* (sorted arrays at
        the current mapping) at the lowest level at which they fit."""
        levels, mapping = 0, self._mapping
        if positive[0].size + negative[0].size > self.max_buckets:
            found = self._collapse_levels(positive[0], negative[0])
            # The mapping refuses an alpha that has rounded to 1, so a
            # budget that no level meets, or one met only past that
            # level, raises here, before any store has moved.
            while found is None:
                mapping = mapping.collapsed()
            levels = found
            for _ in range(levels):
                mapping = mapping.collapsed()
        self._collapse(levels, mapping, positive, negative)

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

    def _collapse(
        self,
        levels: int,
        mapping: LogarithmicMapping,
        positive: _Arrays,
        negative: _Arrays,
    ) -> None:
        """Rebuild each store once from its sorted arrays, *levels*
        collapses up, and move to *mapping*.  An empty store stays as
        it is, and so does one that is handed its own arrays for no
        collapse."""
        for store, arrays in (
            (self._positive, positive), (self._negative, negative)
        ):
            if arrays[0].size and (
                levels or arrays is not store.sorted_arrays()
            ):
                store.set_collapsed(*arrays, levels)
        self._mapping = mapping
        self._collapses += levels
        self._drop_query_caches()

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        # Align collapse levels: the coarser sketch wins, so the finer
        # one is collapsed to its level (*other* through collapsed
        # copies of its stores).  Both levels are settled before either
        # sketch moves, so an incompatible pair leaves us unchanged.
        levels, mapping = _coarsened(self._mapping, other._mapping)
        other_levels, other_mapping = _coarsened(other._mapping, mapping)
        mapping.require_compatible(other_mapping)
        if levels:
            self._collapse(
                levels,
                mapping,
                self._positive.sorted_arrays(),
                self._negative.sorted_arrays(),
            )
        positive, negative = other._positive, other._negative
        if other_levels:
            positive, negative = SparseStore(), SparseStore()
            positive.set_collapsed(
                *other._positive.sorted_arrays(), other_levels
            )
            negative.set_collapsed(
                *other._negative.sorted_arrays(), other_levels
            )
        self._positive.merge(positive)
        self._negative.merge(negative)
        self._zero_count += other._zero_count
        self._merge_bookkeeping(other)
        self._drop_query_caches()
        self._collapse_if_needed()

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
