"""KLL Sketch — near-optimal additive rank-error quantile sketch
(Karnin, Lang, Liberty, FOCS 2016; Sec 3.1 of the paper).

The sketch is a hierarchy of *compactors*.  Items enter the compactor at
height 0 with weight 1; when a compactor fills up it is sorted, a fair
coin selects the odd- or even-indexed half, and the surviving half moves
to the next height with doubled weight.  Compactor capacities shrink
geometrically (factor ``c = 2/3``) below the top level with a floor of
two, which plays the role of the sampler in the original construction and
gives the ``O((1/eps) * sqrt(log(1/eps)))`` space bound.

Quantile queries select by cumulative weight over the retained (value,
weight) pairs in sorted order — so estimates are always actual stream
values, and the sketch occasionally returns the exact quantile (the
zero-error runs visible in the paper's Fig 6).  Levels above 0 change
only when a compaction or a merge runs, so they stay sorted between
queries and a read sorts only level 0 (``WeightedSampleSketch``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.base import (
    CoinFlips,
    Guarantee,
    QuantileSketch,
    WeightedSampleSketch,
    as_float_batch,
)
from repro.errors import InvalidValueError

DEFAULT_MAX_COMPACTOR_SIZE = 350

#: Geometric decay of compactor capacities below the top level.
CAPACITY_DECAY = 2.0 / 3.0

#: Smallest compactor capacity (stands in for the KLL sampler).
MIN_CAPACITY = 2


class KLLSketch(WeightedSampleSketch):
    """Additive rank-error sketch retaining a weighted sample.

    Parameters
    ----------
    max_compactor_size:
        Capacity ``k`` of the highest compactor; the paper's experiments
        use 350 (expected rank error 0.97%).
    seed:
        Seed for the coin flips of the compaction algorithm; pass an int
        for reproducible runs.
    """

    name = "kll"

    def __init__(
        self,
        max_compactor_size: int = DEFAULT_MAX_COMPACTOR_SIZE,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if max_compactor_size < 8:
            raise InvalidValueError(
                f"max_compactor_size must be >= 8, got {max_compactor_size!r}"
            )
        self.max_compactor_size = int(max_compactor_size)
        self._rng = np.random.default_rng(seed)
        self._compactors: list[list[float]] = [[]]
        self._retained = 0
        self._capacities: list[int] = []
        self._capacity_cache = 0
        self._recompute_capacity()

    # ------------------------------------------------------------------
    # Capacity schedule
    # ------------------------------------------------------------------

    def _total_capacity(self) -> int:
        """Cached sum of all compactor capacities."""
        return self._capacity_cache

    def _recompute_capacity(self) -> None:
        """Cache the capacity of each level and their sum.

        The top compactor holds ``k`` items; each level below holds a
        ``2/3`` fraction of the level above, floored at two.  The
        schedule changes only when the hierarchy grows, so the hot paths
        read ``_capacities`` / ``_capacity_cache`` and never redo the
        power math.
        """
        top = len(self._compactors) - 1
        self._capacities = [
            max(
                math.ceil(
                    self.max_compactor_size * CAPACITY_DECAY ** (top - h)
                ),
                MIN_CAPACITY,
            )
            for h in range(len(self._compactors))
        ]
        self._capacity_cache = sum(self._capacities)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._compactors[0].append(value)
        self._retained += 1
        self._observe(value)
        if self._retained > self._capacity_cache:
            self._drop_query_caches()
            with CoinFlips(self._rng) as flip:
                self._compress(flip)

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._observe_batch(values, checked=True)
        # The scalar path compacts only when the *total* retained count
        # exceeds the total capacity (level 0 may legally overfill in
        # between), so extending level 0 right up to that trigger and
        # then compacting reproduces the per-item compaction schedule
        # exactly — same states at every compaction, same RNG draw
        # sequence, which one CoinFlips serves for the batch.  In steady
        # state the next trigger is only a handful of values away
        # (median chunk ~4 at 10^6+ retained histories), so the loop
        # below is hot: it keeps the levels, their capacities and the
        # trigger state in locals and runs the steady-state compaction
        # (_compress' lowest over-full level, below the top) inline.
        # Growth goes through _compress, which rebuilds the schedule.
        items = values.tolist()
        total = len(items)
        compactors = self._compactors
        extend = compactors[0].extend
        capacity = self._capacity_cache
        retained = self._retained
        if retained + total <= capacity:  # no compaction: no coins
            extend(items)
            self._retained = retained + total
            return
        self._drop_query_caches()
        capacities = self._capacities
        top = len(compactors) - 1
        pos = 0
        with CoinFlips(self._rng) as flip:
            while pos < total:
                end = pos + capacity - retained + 1
                chunk = items[pos:end] if end < total else (
                    items[pos:] if pos else items
                )
                extend(chunk)
                retained += len(chunk)
                pos += len(chunk)
                while retained > capacity:
                    height = 0
                    for buffer in compactors:
                        if len(buffer) >= capacities[height]:
                            break
                        height += 1
                    if height >= top:  # the hierarchy grows
                        self._retained = retained
                        self._compress(flip)
                        retained = self._retained
                        capacity = self._capacity_cache
                        capacities = self._capacities
                        top = len(compactors) - 1
                        break
                    buffer.sort()
                    even = len(buffer) & ~1
                    compactors[height + 1].extend(buffer[flip():even:2])
                    del buffer[:even]
                    retained -= even >> 1
        self._retained = retained

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _compress(self, flip: Callable[[], int]) -> None:
        """Compact the lowest over-full compactor (may cascade)."""
        while self._retained > self._capacity_cache:
            capacities = self._capacities
            for height, buffer in enumerate(self._compactors):
                if len(buffer) >= capacities[height]:
                    self._compact_level(height, flip)
                    break
            else:  # no level is individually full; grow the hierarchy
                self._compact_level(len(self._compactors) - 1, flip)

    def _compact_level(self, height: int, flip: Callable[[], int]) -> None:
        """Sort level *height*, promote a random half, discard the rest."""
        buffer = self._compactors[height]
        if len(buffer) < MIN_CAPACITY:
            return
        if height + 1 == len(self._compactors):
            self._compactors.append([])
            self._recompute_capacity()
        buffer.sort()
        # An odd item (the largest) stays behind so the halving is
        # unbiased; the coin picks the odd- or even-indexed half.
        even = len(buffer) & ~1
        self._compactors[height + 1].extend(buffer[flip():even:2])
        del buffer[:even]
        self._retained -= even // 2

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _live_run(self) -> list[float]:
        return self._compactors[0]

    def _sealed_runs(self) -> list[tuple[list[float], int]]:
        return [
            (buffer, 1 << h)
            for h, buffer in enumerate(self._compactors[1:], start=1)
        ]

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other, "max_compactor_size")
        self._drop_query_caches()
        grow = len(other._compactors) - len(self._compactors)
        if grow > 0:  # the schedule depends on the number of levels only
            self._compactors.extend([] for _ in range(grow))
            self._recompute_capacity()
        for height, buffer in enumerate(other._compactors):
            self._compactors[height].extend(buffer)
            self._retained += len(buffer)
        self._merge_bookkeeping(other)
        # Compact any level exceeding the capacity schedule of the
        # combined sketch (k_h is based on the merged height, Sec 3.1).
        if self._retained > self._capacity_cache:
            with CoinFlips(self._rng) as flip:
                self._compress(flip)

    def copy(self) -> "KLLSketch":
        clone = KLLSketch(self.max_compactor_size, seed=0)
        clone._rng.bit_generator.state = self._rng.bit_generator.state
        clone._compactors = [list(buffer) for buffer in self._compactors]
        clone._retained = self._retained
        clone._recompute_capacity()
        clone._count = self._count
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_retained(self) -> int:
        """Total sample size across all compactors."""
        return self._retained

    @property
    def num_levels(self) -> int:
        return len(self._compactors)

    def guarantee(self) -> Guarantee:
        """Additive rank error ``2.446 / k^0.9433`` at 99% confidence:
        the Apache DataSketches constant for two-sided (PMF) queries
        (arXiv 1603.05346), ~0.0097 at k = 350 — the 0.97% of Sec 4.2."""
        return Guarantee(
            "rank", 2.446 / self.max_compactor_size ** 0.9433, 0.99
        )

    def size_bytes(self) -> int:
        # Matches the accounting behind Table 3: the Apache KLL
        # implementation retains 4-byte float samples.
        per_level = 8  # length/capacity word per compactor
        return (
            4 * self._retained
            + per_level * len(self._compactors)
            + 4 * 8  # k, count, min, max
        )
