"""Dyadic Count Sketch — the turnstile quantile sketch of Sec 5.2.3
(Wang/Luo/Yi/Cormode lineage, built on Count-Sketch).

DCS maintains one frequency structure per *dyadic level* of an integer
universe ``[0, 2^universe_log2)``: level ``l`` counts how many stream
items fall into each interval of size ``2^l``.  The rank of ``x`` is
the sum of the counts of the O(log u) dyadic intervals composing
``[0, x)``, and a quantile query descends the dyadic tree comparing the
target rank against left-child counts.

Because every level is a *linear* structure (an exact counter array
for the coarse levels, a :class:`~repro.core.countsketch.CountSketch`
for the fine ones), DCS supports deletions — it is the turnstile
representative the paper contrasts with the five cash-register
sketches: it needs prior knowledge of the universe, more space, and is
slower, which is why it was excluded from the main evaluation
(Sec 5.2.3).  ``benchmarks/bench_related_work.py`` reproduces that
comparison.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.base import (
    NO_GUARANTEE,
    Guarantee,
    QuantileSketch,
    validate_quantile,
)
from repro.core.countsketch import CountSketch
from repro.errors import EmptySketchError, InvalidValueError

DEFAULT_UNIVERSE_LOG2 = 20

#: Levels with at most this many intervals are tracked exactly.
DEFAULT_EXACT_THRESHOLD = 2_048

DEFAULT_CS_WIDTH = 1_024
DEFAULT_CS_DEPTH = 5


class DyadicCountSketch(QuantileSketch):
    """Turnstile quantile sketch over a bounded integer universe.

    Parameters
    ----------
    universe_log2:
        The universe is ``[0, 2**universe_log2)``; values are floored
        to integers and must lie inside it (the prior-knowledge
        requirement the paper highlights).
    exact_threshold:
        Levels whose interval count is at most this are exact arrays.
    cs_width, cs_depth, seed:
        Count-Sketch configuration for the fine levels.
    """

    name = "dcs"

    def __init__(
        self,
        universe_log2: int = DEFAULT_UNIVERSE_LOG2,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
        cs_width: int = DEFAULT_CS_WIDTH,
        cs_depth: int = DEFAULT_CS_DEPTH,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 1 <= universe_log2 <= 40:
            raise InvalidValueError(
                f"universe_log2 must be in [1, 40], got {universe_log2!r}"
            )
        if exact_threshold < 1:
            raise InvalidValueError(
                f"exact_threshold must be >= 1, got {exact_threshold!r}"
            )
        self.universe_log2 = int(universe_log2)
        self.universe = 1 << self.universe_log2
        self.exact_threshold = int(exact_threshold)
        self.seed = int(seed)
        # Levels 0..universe_log2-1; level l has universe >> l intervals.
        self._levels: list[np.ndarray | CountSketch] = []
        for level in range(self.universe_log2):
            intervals = self.universe >> level
            if intervals <= self.exact_threshold:
                self._levels.append(np.zeros(intervals, dtype=np.int64))
            else:
                self._levels.append(
                    CountSketch(
                        width=cs_width, depth=cs_depth,
                        seed=seed + level,
                    )
                )

    # ------------------------------------------------------------------
    # Ingestion (turnstile: insertions and deletions)
    # ------------------------------------------------------------------

    def _validate_keys(self, values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise InvalidValueError("batch contains non-finite values")
        keys = np.floor(values).astype(np.int64)
        if (keys < 0).any() or (keys >= self.universe).any():
            raise InvalidValueError(
                f"values must lie in [0, {self.universe}) — DCS needs "
                f"prior knowledge of the universe (Sec 5.2.3)"
            )
        return keys

    def update(self, value: float) -> None:
        self.update_batch(np.asarray([value], dtype=np.float64))

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        keys = self._validate_keys(values)  # rejects non-finite up front
        self._apply(keys, +1)
        self._observe_batch(keys.astype(np.float64), checked=True)

    def delete(self, value: float) -> None:
        """Remove one occurrence of *value* (turnstile update).

        The caller is responsible for only deleting previously-inserted
        items (the strict turnstile model); min/max/count tracking is
        best-effort under deletions.
        """
        self.delete_batch(np.asarray([value], dtype=np.float64))

    def delete_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        keys = self._validate_keys(values)
        if values.size > self._count:
            raise InvalidValueError(
                "cannot delete more items than were inserted"
            )
        self._apply(keys, -1)
        self._count -= int(values.size)

    def _apply(self, keys: np.ndarray, sign: int) -> None:
        for level, structure in enumerate(self._levels):
            interval_keys = keys >> level
            if isinstance(structure, CountSketch):
                structure.update_batch(interval_keys, sign)
            else:
                counts = np.bincount(
                    interval_keys, minlength=structure.size
                )
                if sign > 0:
                    structure += counts
                else:
                    structure -= counts

    # ------------------------------------------------------------------
    # Rank and quantile queries
    # ------------------------------------------------------------------

    def _interval_count(self, level: int, index: int) -> int:
        structure = self._levels[level]
        if isinstance(structure, CountSketch):
            return max(structure.estimate(index), 0)
        return int(structure[index])

    def rank(self, value: float) -> int:
        """Estimated number of items ``<= value``.

        Sums the dyadic decomposition of ``[0, floor(value) + 1)``.
        """
        self._require_nonempty()
        # Saturate before flooring: math.floor(+/-inf) cannot become an
        # int, and the observed range already answers both extremes.
        if value >= self._max:
            return self._count
        if value < self._min:
            return 0
        x = int(math.floor(value)) + 1  # items <= value == items < x
        if x <= 0:
            return 0
        if x >= self.universe:
            return self._count
        total = 0
        for level in range(self.universe_log2):
            if (x >> level) & 1:
                index = ((x >> (level + 1)) << 1)
                total += self._interval_count(level, index)
        return max(0, min(total, self._count))

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        target = max(math.ceil(q * self._count), 1)
        # Descend the dyadic tree: at each level compare the target
        # against the left child's count.
        index = 0
        for level in range(self.universe_log2 - 1, -1, -1):
            left = index << 1
            left_count = self._interval_count(level, left)
            if target <= left_count:
                index = left
            else:
                target -= left_count
                index = left + 1
        estimate = float(index)
        if self._min <= self._max:  # clamp into the observed range
            estimate = min(max(estimate, self._min), self._max)
        return estimate

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(
            other, "universe_log2", "exact_threshold", "seed"
        )
        for mine, theirs in zip(self._levels, other._levels):
            if isinstance(mine, CountSketch):
                mine.merge(theirs)
            else:
                mine += theirs
        self._merge_bookkeeping(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def guarantee(self) -> Guarantee:
        """``none``: no cited closed form bounds the Count-Sketch levels'
        rank error at this configuration."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        total = 4 * 8
        for structure in self._levels:
            if isinstance(structure, CountSketch):
                total += structure.size_bytes()
            else:
                total += 8 * structure.size
        return total
