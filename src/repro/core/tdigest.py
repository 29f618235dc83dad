"""t-digest baseline (Dunning & Ertl, 2019; Sec 5.2.4 of the paper).

The paper excludes t-digest from its main evaluation because it offers
no worst-case error bound, but discusses it as the closest practical
competitor; this implementation lets the benchmark harness reproduce
that comparison.  It is the *merging* digest variant: incoming values
buffer until a threshold, then buffer and centroids are merged in one
sorted sweep under the ``k1`` scale function

    k(q) = (compression / (2 * pi)) * asin(2q - 1)

which concentrates small centroids at both tails — accurate extreme
quantiles, looser mid-range ones.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.base import (
    NO_GUARANTEE,
    Guarantee,
    QuantileSketch,
    as_float_batch,
    validate_quantile,
    validate_rank_value,
)
from repro.errors import InvalidValueError

DEFAULT_COMPRESSION = 100.0


class TDigest(QuantileSketch):
    """Merging t-digest with the k1 (arcsine) scale function.

    Parameters
    ----------
    compression:
        The ``delta`` parameter bounding the number of centroids;
        typical values are 100-1000.
    """

    name = "tdigest"

    def __init__(self, compression: float = DEFAULT_COMPRESSION) -> None:
        super().__init__()
        if compression < 10:
            raise InvalidValueError(
                f"compression must be >= 10, got {compression!r}"
            )
        self.compression = float(compression)
        self._means = np.zeros(0)
        self._counts = np.zeros(0, dtype=np.int64)
        self._buffer: list[float] = []
        self._buffer_limit = max(int(10 * compression), 500)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._buffer.append(value)
        self._observe(value)
        if len(self._buffer) >= self._buffer_limit:
            self._flush()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._observe_batch(values, checked=True)
        pos = 0
        while pos < values.size:
            room = self._buffer_limit - len(self._buffer)
            chunk = values[pos : pos + room]
            self._buffer.extend(chunk.tolist())
            pos += int(chunk.size)
            if len(self._buffer) >= self._buffer_limit:
                self._flush()

    # ------------------------------------------------------------------
    # Compression sweep
    # ------------------------------------------------------------------

    def _scale_k(self, q: float) -> float:
        q = min(max(q, 0.0), 1.0)
        return self.compression / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    def _flush(self) -> None:
        """Fold the buffer into the centroid list in one sorted sweep."""
        if not self._buffer:
            return
        means = np.concatenate(
            [self._means, np.asarray(self._buffer, dtype=np.float64)]
        )
        counts = np.concatenate(
            [self._counts, np.ones(len(self._buffer), dtype=np.int64)]
        )
        self._buffer.clear()
        self._means, self._counts = self._compress(means, counts)

    def _compress(
        self, means: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Greedily merge weighted points under the k1 size limit.

        The sweep is vectorised: ``k(q)`` is evaluated once for every
        item's right boundary, and each output centroid claims the
        longest prefix whose boundary stays within one k-unit of the
        centroid's left edge (one ``searchsorted`` per centroid).  The
        loop runs once per *output* centroid — O(delta) iterations —
        instead of once per input point.
        """
        order = np.argsort(means, kind="stable")
        means = means[order]
        counts = counts[order]
        n = int(means.size)
        cum = np.cumsum(counts)
        total = int(cum[-1])
        # k at each item's right boundary; nondecreasing because cum is.
        ks = (
            self.compression
            / (2.0 * math.pi)
            * np.arcsin(2.0 * (cum / total) - 1.0)
        )
        weighted = np.cumsum(means * counts)

        new_means: list[float] = []
        new_counts: list[int] = []
        start = 0
        while start < n:
            emitted_q = (float(cum[start - 1]) / total) if start else 0.0
            k_left = self._scale_k(emitted_q)
            end = int(np.searchsorted(ks, k_left + 1.0, side="right"))
            end = max(end, start + 1)  # a centroid takes at least one item
            seg_count = int(cum[end - 1]) - (int(cum[start - 1]) if start else 0)
            seg_sum = float(weighted[end - 1]) - (
                float(weighted[start - 1]) if start else 0.0
            )
            new_means.append(seg_sum / seg_count)
            new_counts.append(seg_count)
            start = end
        return (
            np.asarray(new_means),
            np.asarray(new_counts, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        self._flush()
        total = int(self._counts.sum())
        target = q * total
        # Centroid centres sit at the midpoints of their count mass.
        cumulative = np.cumsum(self._counts) - self._counts / 2.0
        if target <= cumulative[0]:
            return float(self._min)
        if target >= cumulative[-1]:
            return float(self._max)
        estimate = float(np.interp(target, cumulative, self._means))
        return float(min(max(estimate, self._min), self._max))

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        self._flush()
        if value >= self._max:
            return self._count
        if value < self._min:
            return 0
        cumulative = np.cumsum(self._counts) - self._counts / 2.0
        estimate = float(np.interp(value, self._means, cumulative))
        # value >= _min here, so at least the minimum itself is <= value;
        # the half-count centroid interpolation must not round that to 0.
        return max(1, min(int(round(estimate)), self._count))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        self._flush()
        means = np.concatenate([self._means, other._means])
        counts = np.concatenate([self._counts, other._counts])
        if other._buffer:
            means = np.concatenate(
                [means, np.asarray(other._buffer, dtype=np.float64)]
            )
            counts = np.concatenate(
                [counts, np.ones(len(other._buffer), dtype=np.int64)]
            )
        if means.size:  # merging two empty digests is a no-op
            self._means, self._counts = self._compress(means, counts)
        self._merge_bookkeeping(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_centroids(self) -> int:
        self._flush()
        return int(self._means.size)

    def guarantee(self) -> Guarantee:
        """``none``: t-digest's accuracy is empirical (Sec 5.2.4)."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        return (
            16 * self._means.size  # mean + count per centroid
            + 8 * len(self._buffer)
            + 4 * 8
        )
