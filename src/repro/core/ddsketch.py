"""DDSketch — a fast, fully-mergeable quantile sketch with relative-error
guarantees (Masson et al., VLDB 2019; Sec 3.3 of the paper).

The sketch is a geometric histogram: a value ``x`` lands in the bucket
``ceil(log_gamma(x))`` with ``gamma = (1 + alpha) / (1 - alpha)``, so the
representative value of any bucket is within relative error ``alpha`` of
every value it holds.  Quantiles are answered with a cumulative walk over
the buckets and merging adds bucket counts.

This implementation supports negative values and zeros through a mirrored
store plus a zero counter (as DataDog's library does), and three store
layouts — unbounded dense (the paper's accuracy configuration), bounded
collapsing dense, and sparse.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import (
    BATCH,
    NO_GUARANTEE,
    Guarantee,
    QuantileSketch,
    batch_extremes,
    validate_quantile,
    validate_rank_value,
    work_array,
)
from repro.core.mapping import (
    MAX_INDEXABLE_VALUE,
    MIN_INDEXABLE_VALUE,
    LogarithmicMapping,
)
from repro.core.store import (
    BucketStore,
    BucketView,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)
from repro.errors import InvalidValueError

DEFAULT_ALPHA = 0.01

#: The magnitudes of a batch with no values of one sign.
_NO_VALUES = np.zeros(0)
_NO_VALUES.flags.writeable = False

_STORE_FACTORIES: dict[str, Callable[..., BucketStore]] = {
    "dense": lambda max_bins: DenseStore(),
    "collapsing": lambda max_bins: CollapsingLowestDenseStore(max_bins),
    "sparse": lambda max_bins: SparseStore(),
}


class DDSketch(QuantileSketch):
    """Relative-error quantile sketch over arbitrary floats.

    Parameters
    ----------
    alpha:
        Relative-error guarantee; the paper's experiments use 0.01
        (gamma = 1.0202).
    store:
        Bucket store layout: ``"dense"`` (unbounded, the paper's
        configuration), ``"collapsing"`` (bounded at *max_bins*) or
        ``"sparse"``.
    max_bins:
        Bucket budget for the collapsing store; ignored otherwise.
    """

    name = "ddsketch"

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        store: str = "dense",
        max_bins: int = 1024,
    ) -> None:
        super().__init__()
        if store not in _STORE_FACTORIES:
            raise InvalidValueError(
                f"unknown store {store!r}; expected one of "
                f"{sorted(_STORE_FACTORIES)}"
            )
        self._mapping = LogarithmicMapping(alpha)
        self._store_kind = store
        self._max_bins = int(max_bins)
        self._positive = _STORE_FACTORIES[store](max_bins)
        self._negative = _STORE_FACTORIES[store](max_bins)
        self._zero_count = 0
        self._positive_walk: BucketView | None = None
        self._negative_walk: BucketView | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        if value > MIN_INDEXABLE_VALUE:
            self._positive.add(self._mapping.index(value))
        elif value < -MIN_INDEXABLE_VALUE:
            self._negative.add(self._mapping.index(-value))
        else:
            self._zero_count += 1
        self._observe(value)
        self._drop_query_caches()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        self._ingest(values, self._add_magnitudes)

    def _ingest(
        self,
        values: Sequence[float] | np.ndarray,
        add: Callable[[np.ndarray, np.ndarray], None],
    ) -> None:
        """Insert a batch: *add* takes its values above zero and the
        magnitudes of those below it, for the stores.  The range check,
        sign split and bookkeeping are shared; UDDSketch passes an add
        that collapses first.  This class's :meth:`update_batch` stays a
        plain add on every subclass: the one-level UDDSketch reference
        in ``tests/core/test_collapse_levels.py`` calls it so."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        # One pass: the extremes refuse a non-finite or unindexable
        # batch before any store moves, skip the sign split when every
        # value is positive (every latency a service records), and feed
        # the bookkeeping.
        lo, hi = extremes = batch_extremes(values)
        self._check_range(lo, hi)
        if lo > MIN_INDEXABLE_VALUE:
            add(values, _NO_VALUES)
        else:
            positive = values[values > MIN_INDEXABLE_VALUE]
            negative = -values[values < -MIN_INDEXABLE_VALUE]
            add(positive, negative)
            self._zero_count += values.size - positive.size - negative.size
        self._observe_batch(values, checked=True, extremes=extremes)
        self._drop_query_caches()

    def _add_magnitudes(
        self, positive: np.ndarray, negative: np.ndarray
    ) -> None:
        """Add a batch's values above zero, and the magnitudes of those
        below it, to their stores; all lie in the indexable range.  The
        indices go through this thread's batch work array, one store
        at a time."""
        for store, values in (
            (self._positive, positive), (self._negative, negative)
        ):
            if values.size:
                store.add_batch(self._mapping.index_batch(
                    values, out=work_array(BATCH, values.size, np.int64)
                ))

    def _check_range(self, lo: float, hi: float) -> None:
        # argmin/argmax stop at the first NaN, which fails both bounds.
        if not -MAX_INDEXABLE_VALUE <= lo <= hi <= MAX_INDEXABLE_VALUE:
            raise InvalidValueError(
                "batch contains values outside the indexable range"
                if math.isfinite(lo) and math.isfinite(hi)
                else "batch contains non-finite values; nothing ingested"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        estimates: list[float] = []
        positive = negative = None
        for q in qs:
            q = validate_quantile(q)
            if not estimates:
                self._require_nonempty()
                neg_total = self._negative.total
                below_positive = neg_total + self._zero_count
            # 0-based rank of the q-quantile item under the paper's
            # Sec 2.1 definition (the item of rank ceil(qN)).
            rank = max(math.ceil(q * self._count) - 1, 0)
            if rank < neg_total:
                # Negatives are ordered most-negative first: the item of
                # rank r sits in the bucket found by walking |x| buckets
                # downward.
                if negative is None:
                    negative = self._negative_view()
                estimate = -self._mapping.value(negative.key_at(rank))
            elif rank < below_positive:
                estimate = 0.0
            else:
                if positive is None:
                    positive = self._positive_view()
                estimate = self._mapping.value(
                    positive.key_at(rank - below_positive)
                )
            # Clamp to the observed range so extreme quantiles never
            # leave it.
            estimates.append(float(min(max(estimate, self._min), self._max)))
        return estimates

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        value = float(value)
        if value >= self._max:
            return self._count
        if value < self._min:
            return 0
        if value >= -MIN_INDEXABLE_VALUE:
            # everything negative (and zero) is <= value
            total = self._negative.total + self._zero_count
            if value >= MIN_INDEXABLE_VALUE:
                total += self._positive_view().count_through(
                    self._mapping.index(value)
                )
        else:
            # the negatives <= value are those with |x| >= |value|; NaN
            # lands here too, and the mapping refuses it
            total = self._negative_view().count_through(
                self._mapping.index(-value)
            )
        return min(total, self._count)

    # Each store's view is built on a read's first use of it (most reads
    # never reach the negative store) and kept until a call changes a
    # store or the mapping; readers share it and never write to it.

    def _positive_view(self) -> BucketView:
        view = self._positive_walk
        if view is None:
            view = self._positive_walk = self._positive.view()
        return view

    def _negative_view(self) -> BucketView:
        view = self._negative_walk
        if view is None:
            view = self._negative_walk = self._negative.view(descending=True)
        return view

    def _drop_query_caches(self) -> None:
        self._positive_walk = None
        self._negative_walk = None

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        self._mapping.require_compatible(other._mapping)
        self._positive.merge(other._positive)
        self._negative.merge(other._negative)
        self._zero_count += other._zero_count
        self._merge_bookkeeping(other)
        self._drop_query_caches()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def alpha(self) -> float:
        """Relative-error guarantee of the sketch."""
        return self._mapping.alpha

    @property
    def gamma(self) -> float:
        return self._mapping.gamma

    @property
    def mapping(self) -> LogarithmicMapping:
        return self._mapping

    @property
    def num_buckets(self) -> int:
        """Non-empty buckets across both stores."""
        return self._positive.num_buckets + self._negative.num_buckets

    def guarantee(self) -> Guarantee:
        """Relative error ``alpha`` (Masson et al., VLDB 2019); ``none``
        once a bounded store has folded low buckets into its floor."""
        if self._positive.is_collapsed or self._negative.is_collapsed:
            return NO_GUARANTEE
        return Guarantee("relative", self._mapping.alpha)

    def size_bytes(self) -> int:
        # Stores plus zero counter, count, min, max and gamma.
        return (
            self._positive.size_bytes()
            + self._negative.size_bytes()
            + 5 * 8
        )
