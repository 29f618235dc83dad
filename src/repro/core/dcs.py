"""Dyadic Count Sketch — the turnstile quantile sketch of Sec 5.2.3
(Wang/Luo/Yi/Cormode lineage, built on Count-Sketch).

DCS maintains one frequency structure per *dyadic level* of an integer
universe ``[0, 2^universe_log2)``: level ``l`` counts how many stream
items fall into each interval of size ``2^l``.  The rank of ``x`` is
the sum of the counts of the O(log u) dyadic intervals composing
``[0, x)``, and a quantile query descends the dyadic tree comparing the
target rank against left-child counts.

Because every level is a *linear* structure (exact interval counters
for the coarse levels, a Count-Sketch for the fine ones), DCS supports
deletions — it is the turnstile representative the paper contrasts
with the five cash-register sketches: it needs prior knowledge of the
universe, more space, and is slower, which is why it was excluded from
the main evaluation (Sec 5.2.3).  ``benchmarks/bench_related_work.py``
reproduces that comparison.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.core.base import (
    NO_GUARANTEE,
    Guarantee,
    QuantileSketch,
    validate_quantile,
    validate_rank_value,
)
from repro.core import countsketch
from repro.errors import InvalidValueError

DEFAULT_UNIVERSE_LOG2 = 20

#: Levels with at most this many intervals are tracked exactly.
DEFAULT_EXACT_THRESHOLD = 2_048

DEFAULT_CS_WIDTH = 1_024
DEFAULT_CS_DEPTH = 5

#: Keys per step of the update loop, which hashes them for all sketched
#: levels at once into levels x depth x keys int64 temporaries: 184 kB at
#: the defaults, which the allocator reuses.  Steps of 4,096 keys (1.5 MB)
#: page-faulted fresh memory each time; one step of 2M keys takes 720 MB.
UPDATE_CHUNK = 512


def level_layout(
    universe_log2: int, exact_threshold: int, cs_width: int, cs_depth: int
) -> Iterator[tuple[bool, int]]:
    """``(sketched, counters)`` of each level, finest first: what a
    sketch of this configuration holds, known before it allocates."""
    for level in range(universe_log2):
        intervals = 1 << (universe_log2 - level)
        sketched = intervals > exact_threshold
        yield sketched, cs_width * cs_depth if sketched else intervals


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
        self.num_levels = self.universe_log2
        # The sketched levels are (depth, width) slices of one table.  An
        # all-exact sketch keeps no Count-Sketch shape: 0 x 0, always.
        layout = level_layout(self.universe_log2, self.exact_threshold, 0, 0)
        sketched = sum(kind for kind, _size in layout)
        if not sketched:
            cs_width = cs_depth = 0
        self.cs_width, self.cs_depth = int(cs_width), int(cs_depth)
        self._sketched, self._hashes = countsketch.new_levels(
            range(self.seed, self.seed + sketched), cs_width, cs_depth
        )
        # Exact level l's interval i is at (universe >> l) - 2 + i: the
        # coarsest level first, each finer one after the one above it.
        self._shifts = np.arange(self.universe_log2)[:, None]
        self._exact_base = (self.universe >> self._shifts[sketched:]) - 2
        self._exact = np.zeros(2 * (self.universe >> sketched) - 2, np.int64)

    # ------------------------------------------------------------------
    # Ingestion (turnstile: insertions and deletions)
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        self.update_batch(np.asarray([value], dtype=np.float64))

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        keys = self._apply(values, +1)
        self._observe_batch(keys.astype(np.float64), checked=True)

    def delete(self, value: float) -> None:
        """Remove one occurrence of *value* (turnstile update).

        The caller is responsible for only deleting previously-inserted
        items (the strict turnstile model); min/max/count tracking is
        best-effort under deletions.
        """
        self.delete_batch(np.asarray([value], dtype=np.float64))

    def delete_batch(self, values: Sequence[float] | np.ndarray) -> None:
        self._count -= self._apply(values, -1).size

    def _check_range(self, lo: float, hi: float) -> None:
        if not 0 <= lo <= hi < self.universe:
            raise InvalidValueError(
                f"values must lie in [0, {self.universe}) — DCS needs "
                f"prior knowledge of the universe (Sec 5.2.3)"
            )

    def _apply(
        self, values: Sequence[float] | np.ndarray, sign: int
    ) -> np.ndarray:
        """Check, then add *sign* per key at every level; return the keys."""
        floors = np.floor(np.asarray(values, dtype=np.float64).ravel())
        if floors.size:
            # min/max carry a NaN through, and NaN fails every comparison.
            self._check_range(float(floors.min()), float(floors.max()))
        keys = floors.astype(np.int64)
        if sign < 0 and keys.size > self._count:
            raise InvalidValueError(
                "cannot delete more items than were inserted"
            )
        sketched = len(self._sketched)
        for start in range(0, keys.size, UPDATE_CHUNK):
            chunk = keys[start:start + UPDATE_CHUNK]
            countsketch.signed_add(
                self._sketched, self._hashes,
                chunk >> self._shifts[:sketched], sign,
            )
            np.add.at(
                self._exact,
                (chunk >> self._shifts[sketched:]) + self._exact_base,
                sign,
            )
        return keys

    # ------------------------------------------------------------------
    # Rank and quantile queries
    # ------------------------------------------------------------------

    def _interval_count(self, level: int, index: int) -> int:
        if level >= len(self._sketched):
            return int(self._exact[(self.universe >> level) - 2 + index])
        at = slice(level, level + 1)
        estimate = countsketch.signed_median(
            self._sketched[at], self._hashes[:, at], np.array([[index]])
        )
        return max(int(estimate[0, 0]), 0)

    def rank(self, value: float) -> int:
        """Estimated number of items ``<= value``.

        Sums the dyadic decomposition of ``[0, floor(value) + 1)``.
        """
        validate_rank_value(value)
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
                total += self._interval_count(level, (x >> (level + 1)) << 1)
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
    # Merging and introspection
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(
            other, "universe_log2", "exact_threshold", "seed",
            "cs_width", "cs_depth",
        )
        self._sketched += other._sketched
        self._exact += other._exact
        self._merge_bookkeeping(other)

    def copy(self) -> "DyadicCountSketch":
        """Field by field: the counters are copied, the hash parameters
        and level offsets (never written after ``__init__``) shared."""
        clone = object.__new__(DyadicCountSketch)
        for name in (
            "universe_log2", "universe", "exact_threshold", "seed",
            "num_levels", "cs_width", "cs_depth",
            "_hashes", "_shifts", "_exact_base",
            "_count", "_min", "_max",
        ):
            setattr(clone, name, getattr(self, name))
        clone._sketched = self._sketched.copy()
        clone._exact = self._exact.copy()
        return clone

    def level_counters(self) -> list[tuple[bool, np.ndarray]]:
        """``(sketched, counters)`` per level, finest first, sized as in
        :func:`level_layout`: writable views, which the codec writes
        and fills."""
        return [(True, table.reshape(-1)) for table in self._sketched] + [
            (False, self._exact[base:2 * base + 2])
            for base in self._exact_base.ravel().tolist()
        ]

    def guarantee(self) -> Guarantee:
        """``none``: no cited closed form bounds the Count-Sketch levels'
        rank error at this configuration."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        return 8 * (
            4 + self._sketched.size + self._hashes.size + self._exact.size
        )
