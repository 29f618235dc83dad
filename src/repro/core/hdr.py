"""HDR Histogram baseline (Tene; Sec 5.2.2 of the paper).

The High Dynamic Range histogram buckets values with a fixed number of
*significant decimal digits*: the value range is split into exponential
half-ranges, each subdivided linearly, so every recorded value is
reproduced within ``10^-digits`` relative error.  The paper excludes it
from the main evaluation because DDSketch was shown comparable or
better across the board (Masson et al.); this implementation lets the
harness reproduce that comparison.

Like the reference implementation the histogram tracks non-negative
values up to a configurable ``highest_trackable_value`` and counts in a
flat array indexed by (bucket, sub-bucket).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.base import (
    Guarantee,
    QuantileSketch,
    as_float_batch,
    batch_extremes,
    validate_quantile,
    validate_rank_value,
)
from repro.errors import InvalidValueError

DEFAULT_SIGNIFICANT_DIGITS = 2
DEFAULT_HIGHEST_TRACKABLE = 10.0 ** 9


class HdrHistogram(QuantileSketch):
    """Fixed-precision exponential/linear histogram.

    Parameters
    ----------
    significant_digits:
        Number of significant decimal digits preserved (1-4); 2 gives
        a <=0.5% worst-case relative error on reconstructed values.
    highest_trackable_value:
        Upper bound of the trackable range; values above it raise.
        Values in [0, 1) are recorded in the lowest sub-buckets.
    """

    name = "hdr"

    def __init__(
        self,
        significant_digits: int = DEFAULT_SIGNIFICANT_DIGITS,
        highest_trackable_value: float = DEFAULT_HIGHEST_TRACKABLE,
    ) -> None:
        super().__init__()
        if not 1 <= significant_digits <= 4:
            raise InvalidValueError(
                f"significant_digits must be in [1, 4], got "
                f"{significant_digits!r}"
            )
        if not 2 <= highest_trackable_value < math.inf:
            raise InvalidValueError(
                f"highest_trackable_value must be finite and >= 2, got "
                f"{highest_trackable_value!r}"
            )
        self.significant_digits = int(significant_digits)
        self.highest_trackable_value = float(highest_trackable_value)
        # Sub-bucket resolution: smallest power of two with at least
        # 2 * 10^digits slots, so each half-range resolves the target
        # precision.
        largest_resolvable = 2 * 10 ** self.significant_digits
        self._sub_bucket_half_count_magnitude = max(
            math.ceil(math.log2(largest_resolvable)) - 1, 0
        )
        self._sub_bucket_count = 1 << (
            self._sub_bucket_half_count_magnitude + 1
        )
        self._sub_bucket_half_count = self._sub_bucket_count // 2
        self._sub_bucket_mask = self._sub_bucket_count - 1
        # Number of exponential buckets needed to reach the top value.
        buckets = 1
        smallest_untrackable = self._sub_bucket_count
        while smallest_untrackable <= self.highest_trackable_value:
            smallest_untrackable *= 2
            buckets += 1
        self._bucket_count = buckets
        length = (buckets + 1) * self._sub_bucket_half_count
        self._counts = np.zeros(length, dtype=np.int64)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_of(self, value: float) -> int:
        """Flat counts-array index of *value* (non-negative)."""
        v = int(value)
        bucket = max(v.bit_length() - self._sub_bucket_half_count_magnitude - 1, 0)
        sub_bucket = v >> bucket
        return (
            (bucket + 1) * self._sub_bucket_half_count
            + (sub_bucket - self._sub_bucket_half_count)
        )

    def _value_at(self, index: int) -> float:
        """Representative (midpoint) value of the slot at *index*."""
        bucket = index // self._sub_bucket_half_count - 1
        sub_bucket = (
            index % self._sub_bucket_half_count
        ) + self._sub_bucket_half_count
        if bucket < 0:
            bucket = 0
            sub_bucket -= self._sub_bucket_half_count
        lower = sub_bucket << bucket
        width = 1 << bucket
        return lower + width / 2.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise InvalidValueError(
                f"HdrHistogram records finite non-negative values, got "
                f"{value!r}"
            )
        if value > self.highest_trackable_value:
            raise InvalidValueError(
                f"value {value!r} above highest_trackable_value "
                f"{self.highest_trackable_value!r}"
            )
        # Values are scaled so that the unit of least precision is the
        # integer grid; sub-unit values land in the lowest slots.
        self._counts[self._index_of(value)] += 1
        self._observe(value)

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        extremes = batch_extremes(values)
        self._check_range(*extremes)
        ints = values.astype(np.int64)
        bit_lengths = np.zeros(values.size, dtype=np.int64)
        nonzero = ints > 0
        bit_lengths[nonzero] = (
            np.floor(np.log2(ints[nonzero].astype(np.float64))) + 1
        ).astype(np.int64)
        buckets = np.maximum(
            bit_lengths - self._sub_bucket_half_count_magnitude - 1, 0
        )
        sub_buckets = ints >> buckets
        indices = (
            (buckets + 1) * self._sub_bucket_half_count
            + (sub_buckets - self._sub_bucket_half_count)
        )
        self._counts += np.bincount(
            indices, minlength=self._counts.size
        ).astype(np.int64)
        self._observe_batch(values, checked=True, extremes=extremes)

    def _check_range(self, lo: float, hi: float) -> None:
        if lo < 0:
            raise InvalidValueError("batch contains negative values")
        if hi > self.highest_trackable_value:
            raise InvalidValueError(
                "batch contains values above highest_trackable_value"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        target = max(math.ceil(q * self._count), 1)
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, self._counts.size - 1)
        estimate = self._value_at(index)
        return float(min(max(estimate, self._min), self._max))

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        if value >= self._max:
            return self._count
        if value < max(self._min, 0.0):
            return 0
        index = self._index_of(value)
        return int(self._counts[: index + 1].sum())

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(
            other, "significant_digits", "highest_trackable_value"
        )
        self._counts += other._counts
        self._merge_bookkeeping(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """Non-empty count slots."""
        return int(np.count_nonzero(self._counts))

    def guarantee(self) -> Guarantee:
        """Relative error ``10^-digits``, HdrHistogram's value precision,
        for values >= ``10^digits / 2``; below that the integer grid's
        unit resolution governs."""
        return Guarantee("relative", 10.0 ** -self.significant_digits)

    def size_bytes(self) -> int:
        # The whole (mostly sparse) counts array is allocated up front —
        # the fixed-footprint trait the paper contrasts with DDSketch's
        # range-adaptive stores.
        return 8 * self._counts.size + 4 * 8
