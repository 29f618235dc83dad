"""ReqSketch — Relative Error Quantiles sketch (Cormode, Karnin, Liberty,
Thaler, Vesely, PODS 2021; Sec 3.5 of the paper).

Like KLL the sketch keeps a hierarchy of compactors, but each
*relative-compactor* protects a prefix of its sorted buffer and only
compacts a section-aligned region at one end, with a *compaction
schedule* that compacts the exposed end more often the closer it is to
the buffer edge.  With high-rank accuracy (HRA) enabled the low end is
compacted, biasing retention toward large values and giving the
multiplicative rank guarantee ``|rank(x) - est| <= eps * rank(x)`` for
the upper quantiles the paper cares about.

The parameterisation follows the paper's Sec 4.2: ``num_sections`` is the
section-size knob (the Apache library calls it ``k``), and HRA is on by
default.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.base import (
    NO_GUARANTEE,
    CoinFlips,
    Guarantee,
    QuantileSketch,
    WeightedSampleSketch,
    as_float_batch,
)
from repro.errors import InvalidValueError

DEFAULT_NUM_SECTIONS = 30

#: Every relative-compactor starts with this many sections.
INIT_SECTIONS = 3

#: Floor for the section size as the schedule shrinks it.
MIN_SECTION_SIZE = 4


def _nearest_even(x: float) -> int:
    return int(round(x / 2.0)) * 2


class _RelativeCompactor:
    """One level of the ReqSketch hierarchy."""

    __slots__ = (
        "section_size",
        "_section_size_f",
        "num_sections",
        "nom_capacity",
        "state",
        "buffer",
        "hra",
    )

    def __init__(self, section_size: int, hra: bool) -> None:
        self._set_sections(INIT_SECTIONS, section_size, float(section_size))
        self.state = 0  # compaction counter driving the schedule
        self.buffer: list[float] = []
        self.hra = hra

    def _set_sections(
        self, num_sections: int, section_size: int, section_size_f: float
    ) -> None:
        """Set the section layout and its buffer capacity
        ``B = 2 * num_sections * section_size`` (the ``nom_capacity``)."""
        self.num_sections = num_sections
        self.section_size = section_size
        self._section_size_f = section_size_f
        self.nom_capacity = 2 * num_sections * section_size

    def compact(
        self, flip: Callable[[], int], below_capacity: bool = False
    ) -> list[float]:
        """Run one compaction in place and return the items promoted
        upward.

        With *below_capacity* (a merge's walk) the region grows, when
        that is larger, to everything past the protected prefix and the
        sections the schedule spares (the DataSketches
        ``computeCompactionRange``), so a level that a merge left at k
        times its capacity ends below it in one step.
        """
        if self.state >= 1 << (self.num_sections - 1):
            self._ensure_enough_sections()
        buffer = self.buffer
        buffer.sort()
        # The schedule compacts 1 section most of the time and
        # progressively more sections as the state accumulates set bits,
        # so items near the protected end are compacted rarely.
        secs = _trailing_ones(self.state) + 1
        if secs > self.num_sections - 1:
            secs = self.num_sections - 1
        compact_len = secs * self.section_size
        # At least half the buffer is always protected.
        half = len(buffer) // 2
        if compact_len > half:
            compact_len = half
        if below_capacity:
            # At exactly capacity this equals the schedule's region.
            keep = (
                self.nom_capacity // 2
                + (self.num_sections - secs) * self.section_size
            )
            if len(buffer) - keep > compact_len:
                compact_len = len(buffer) - keep
        compact_len -= compact_len % 2  # even region for a fair halving
        if compact_len < 2:
            compact_len = 2
        if self.hra:
            promoted = buffer[flip():compact_len:2]
            del buffer[:compact_len]
        else:
            start = max(len(buffer) - compact_len, 0)
            promoted = buffer[start + flip()::2]
            del buffer[start:]
        self.state += 1
        return promoted

    def _ensure_enough_sections(self) -> None:
        """Double the section count (shrinking sections) once the state
        says this compactor has been compacted enough times."""
        new_size_f = self._section_size_f / math.sqrt(2.0)
        new_size = _nearest_even(new_size_f)
        if new_size >= MIN_SECTION_SIZE:
            self._set_sections(self.num_sections << 1, new_size, new_size_f)

    def merge_from(self, other: "_RelativeCompactor") -> None:
        self.buffer.extend(other.buffer)
        # Sec 3.5: merged schedule state is the bitwise OR of the two.
        self.state |= other.state
        smaller = other if other.section_size < self.section_size else self
        self._set_sections(
            max(self.num_sections, other.num_sections),
            smaller.section_size,
            smaller._section_size_f,
        )


def _trailing_ones(state: int) -> int:
    # state ^ (state + 1) is 2**(t + 1) - 1 for t trailing ones.
    return (state ^ (state + 1)).bit_length() - 1


class ReqSketch(WeightedSampleSketch):
    """Multiplicative rank-error sketch with configurable end bias.

    Parameters
    ----------
    num_sections:
        Section-size knob ``k``; the paper's experiments use 30.
    hra:
        High-rank accuracy.  When True (the paper's setting) compaction
        discards from the small end, making upper-quantile estimates
        extremely accurate at the cost of lower quantiles.
    seed:
        Seed for the compaction coin flips.
    """

    name = "req"
    #: Each level is sorted on its own before the stable merge.
    _sort_each_run = True

    def __init__(
        self,
        num_sections: int = DEFAULT_NUM_SECTIONS,
        hra: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if num_sections < MIN_SECTION_SIZE:
            raise InvalidValueError(
                f"num_sections must be >= {MIN_SECTION_SIZE}, "
                f"got {num_sections!r}"
            )
        if num_sections % 2 == 1:
            num_sections += 1  # the section size must be even
        self.num_sections = int(num_sections)
        self.hra = bool(hra)
        self._rng = np.random.default_rng(seed)
        self._compactors = [_RelativeCompactor(self.num_sections, self.hra)]
        self._retained = 0
        # Every level above this one is below capacity: only a stream
        # walk or decoding can leave one at or over it; a merge cannot
        # (see _compress).
        self._overfull_top = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        level0 = self._compactors[0]
        level0.buffer.append(value)
        self._retained += 1
        self._observe(value)
        if len(level0.buffer) >= level0.nom_capacity:
            self._drop_query_caches()
            with CoinFlips(self._rng) as flip:
                self._compress(flip)

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._observe_batch(values, checked=True)
        items = values.tolist()
        total = len(items)
        # The walk only adds deltas to the retained count, so the batch
        # can be counted up front.
        self._retained += total
        level0 = self._compactors[0]
        buffer = level0.buffer  # compacted in place: the same list throughout
        if len(buffer) + total < level0.nom_capacity:  # no walk: no coins
            buffer.extend(items)
            return
        self._drop_query_caches()
        pos = 0
        with CoinFlips(self._rng) as flip:
            while pos < total:
                capacity = level0.nom_capacity
                room = max(capacity - len(buffer), 1)
                chunk = items[pos : pos + room]
                buffer.extend(chunk)
                pos += len(chunk)
                if len(buffer) >= capacity:
                    self._compress(flip)

    def _compress(
        self, flip: Callable[[], int], below_capacity: bool = False
    ) -> None:
        """The compaction walk: bottom up, compact each level at or over
        its capacity and promote half of the compacted region upward.

        Between walks only level 0 grows, so a level above it can be at
        capacity only if it receives promotions in this walk or the last
        walk or decoding left it there (``_overfull_top``).  The walk
        stops at the first level below capacity past both; the levels it
        skips would not have been compacted.  A merge's walk passes
        *below_capacity* to each compaction, so it leaves every level
        below capacity.
        """
        compactors = self._compactors
        retained = self._retained
        last = self._overfull_top
        overfull = 0
        height = 0
        while height < len(compactors):
            compactor = compactors[height]
            buffer = compactor.buffer
            size = len(buffer)
            if size >= compactor.nom_capacity:
                if height + 1 == len(compactors):
                    compactors.append(
                        _RelativeCompactor(self.num_sections, self.hra)
                    )
                promoted = compactor.compact(flip, below_capacity)
                compactors[height + 1].buffer.extend(promoted)
                retained += len(buffer) - size + len(promoted)
                if len(buffer) >= compactor.nom_capacity:
                    overfull = height
            elif height >= last:
                break
            height += 1
        self._retained = retained
        self._overfull_top = overfull

    def _adopt_levels(self, compactors: list[_RelativeCompactor]) -> None:
        """Take *compactors* as the hierarchy (the decoder's levels).  Any
        of them may sit at capacity, so the next walk visits them all."""
        self._drop_query_caches()
        self._compactors = compactors
        self._retained = sum(len(c.buffer) for c in compactors)
        self._overfull_top = len(compactors) - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _live_run(self) -> list[float]:
        return self._compactors[0].buffer

    def _sealed_runs(self) -> list[tuple[list[float], int]]:
        return [
            (compactor.buffer, 1 << h)
            for h, compactor in enumerate(self._compactors[1:], start=1)
        ]

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other, "hra", "num_sections")
        self._drop_query_caches()
        while len(self._compactors) < len(other._compactors):
            self._compactors.append(
                _RelativeCompactor(self.num_sections, self.hra)
            )
        for height, compactor in enumerate(other._compactors):
            self._compactors[height].merge_from(compactor)
        self._merge_bookkeeping(other)
        self._retained += other._retained
        # Any level may now be at or many times over capacity, and a
        # merged section layout can lower a capacity: walk every level,
        # compacting each full one to below capacity, so a fold stays
        # the size of one sketch.
        self._overfull_top = len(self._compactors) - 1
        with CoinFlips(self._rng) as flip:
            self._compress(flip, below_capacity=True)

    def copy(self) -> "ReqSketch":
        clone = ReqSketch(self.num_sections, self.hra, seed=0)
        clone._rng.bit_generator.state = self._rng.bit_generator.state
        clone._compactors = []
        for compactor in self._compactors:
            level = _RelativeCompactor(self.num_sections, self.hra)
            level._set_sections(
                compactor.num_sections,
                compactor.section_size,
                compactor._section_size_f,
            )
            level.state = compactor.state
            level.buffer = list(compactor.buffer)
            clone._compactors.append(level)
        clone._retained = self._retained
        clone._overfull_top = self._overfull_top
        clone._count = self._count
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_retained(self) -> int:
        """Total number of retained items across all compactors."""
        return self._retained

    @property
    def num_levels(self) -> int:
        return len(self._compactors)

    def guarantee(self) -> Guarantee:
        """``none``: the multiplicative rank bound of Cormode et al.
        (arXiv 2004.01668) is asymptotic, with no constant for this
        section schedule."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        # Matches the accounting behind Table 3: the Apache REQ
        # implementation retains 4-byte float samples.
        per_level = 4 * 8  # section size/count, state, length words
        return (
            4 * self._retained
            + per_level * len(self._compactors)
            + 4 * 8
        )
