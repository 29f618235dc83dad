"""Greenwald-Khanna (GK) quantile summary baseline (SIGMOD 2001).

The classic deterministic epsilon-approximate summary the related-work
section traces the modern sketches back to (Sec 5.1: GK, GKAdaptive,
GKArray).  It keeps a sorted list of tuples ``(value, g, delta)`` where
``g`` is the gap in minimum rank to the previous tuple and ``delta``
bounds the rank uncertainty; tuples are merged whenever
``g_i + g_{i+1} + delta_{i+1} <= 2 * eps * n``.

GK is not natively mergeable — merging concatenates summaries at the
cost of summed error bounds, which is precisely why the paper's five
evaluated sketches superseded it in distributed settings.

:class:`GKSummary` is that summary: the tuple table, the sorted-run
insert sweep, compression, the merge walk and the read path.
:class:`GKSketch` (here) and :class:`~repro.core.gkarray.GKArray` differ
only in when inserts reach it.
"""

from __future__ import annotations

import abc
import bisect
import math
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.base import (
    Guarantee,
    QuantileSketch,
    as_float_batch,
    validate_quantile,
    validate_rank_value,
)
from repro.errors import InvalidValueError

DEFAULT_EPSILON = 0.01


class _Tuple:
    __slots__ = ("value", "g", "delta")

    def __init__(self, value: float, g: int, delta: int) -> None:
        self.value = value
        self.g = g
        self.delta = delta


class GKSummary(QuantileSketch):
    """The Greenwald-Khanna tuple table both GK variants keep.

    ``_tuples`` holds the ``(value, g, delta)`` tuples in value order
    and ``_values`` mirrors their values for ``bisect``.  Every value a
    subclass has accepted but not yet inserted waits outside the table;
    :meth:`_flush` moves it in (a no-op unless the subclass buffers).
    """

    def __init__(self, epsilon: float) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise InvalidValueError(
                f"epsilon must be in (0, 0.5), got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        self._tuples: list[_Tuple] = []
        self._values: list[float] = []

    @abc.abstractmethod
    def copy(self) -> "GKSummary":
        """A field-by-field copy (:meth:`_copy_table_into` does the table)."""

    def _flush(self) -> None:
        """Insert whatever values wait outside the table."""

    def _flushed(self) -> "GKSummary":
        """This summary with nothing waiting outside the table: itself,
        or a flushed copy, so a merge never mutates its operand."""
        return self

    def _copy_table_into(self, clone: "GKSummary") -> "GKSummary":
        clone._tuples = [_Tuple(t.value, t.g, t.delta) for t in self._tuples]
        clone._values = list(self._values)
        clone._count, clone._min, clone._max = self._count, self._min, self._max
        return clone

    def _adopt_table(self, rows: Sequence[tuple[float, int, int]]) -> None:
        """Replace the table by ``(value, g, delta)`` rows, in order."""
        self._tuples = [_Tuple(value, g, delta) for value, g, delta in rows]
        self._values = [value for value, _, _ in rows]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _insert_sorted(
        self, values: Sequence[float], deltas: Sequence[int]
    ) -> None:
        """Insert ascending *values* (``g = 1``, their *deltas*) in one
        sweep.  ``bisect_right`` places ties after the table's equal
        values, as a scalar insert does; the lists are rebuilt with
        slice extends rather than shifted once per value."""
        tuples = self._tuples
        old_values = self._values
        merged: list[_Tuple] = []
        merged_values: list[float] = []
        prev = 0
        for value, delta in zip(values, deltas):
            insert_at = bisect.bisect_right(old_values, value, prev)
            if insert_at > prev:
                merged.extend(tuples[prev:insert_at])
                merged_values.extend(old_values[prev:insert_at])
                prev = insert_at
            merged.append(_Tuple(value, 1, delta))
            merged_values.append(value)
        merged.extend(tuples[prev:])
        merged_values.extend(old_values[prev:])
        self._tuples = merged
        self._values = merged_values

    def _compress(self) -> None:
        """Fold each tuple into its successor while the band allows,
        right to left, never merging away the minimum."""
        threshold = 2.0 * self.epsilon * self._count
        tuples = self._tuples
        values = self._values
        i = len(tuples) - 2
        while i >= 1:
            current = tuples[i]
            nxt = tuples[i + 1]
            if current.g + nxt.g + nxt.delta <= threshold:
                nxt.g += current.g
                del tuples[i]
                del values[i]
            i -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _select(self, q: float) -> float:
        """The quantile walk: the first tuple whose rank band reaches
        ``ceil(q * n) - eps * n``."""
        q = validate_quantile(q)
        self._require_nonempty()
        self._flush()
        target = math.ceil(q * self._count)
        margin = self.epsilon * self._count
        min_rank = 0
        for item in self._tuples:
            min_rank += item.g
            max_rank = min_rank + item.delta
            if max_rank >= target - margin and min_rank >= target - margin:
                return item.value
        return self._tuples[-1].value

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        self._flush()
        min_rank = 0
        best = 0
        for item in self._tuples:
            min_rank += item.g
            if item.value <= value:
                best = min_rank + item.delta // 2
            else:
                break
        return min(best, self._count)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merge_tables(self, other: "GKSummary") -> None:
        """Interleave *other*'s tuples into this table by value (this
        table's first among ties), then compress.

        The merged error bound is the *sum* of the inputs' epsilons,
        the classic weakness that motivated natively-mergeable sketches.
        """
        self._flush()
        other = other._flushed()
        # Both runs are sorted, so the stable sort is one linear merge.
        merged = sorted(
            self._tuples
            + [_Tuple(t.value, t.g, t.delta) for t in other._tuples],
            key=attrgetter("value"),
        )
        self._tuples = merged
        self._values = [item.value for item in merged]
        self._merge_bookkeeping(other)
        self._compress()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tuples)


class GKSketch(GKSummary):
    """Deterministic additive rank-error summary.

    Parameters
    ----------
    epsilon:
        Additive rank-error guarantee: a q-quantile query returns a value
        whose rank is within ``epsilon * n`` of ``q * n``.
    """

    name = "gk"

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        super().__init__(epsilon)
        # Compress after every period-th insert: whenever the count is
        # a multiple of it, so a restored summary keeps the schedule.
        self._period = max(int(1.0 / (2.0 * self.epsilon)), 1)

    def copy(self) -> "GKSketch":
        return self._copy_table_into(GKSketch(self.epsilon))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._observe(value)
        pos = bisect.bisect_right(self._values, value)
        if pos == 0 or pos == len(self._tuples):
            delta = 0  # new extremum: rank is known exactly
        else:
            delta = max(
                int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0
            )
        self._tuples.insert(pos, _Tuple(value, 1, delta))
        self._values.insert(pos, value)
        if self._count % self._period == 0:
            self._compress()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        """Vectorised ingest that replays the scalar schedule exactly.

        Between two compression passes the summary only *gains* tuples,
        so a whole run of inserts can be merged in one sorted sweep —
        provided each item still gets the delta the scalar path would
        have assigned (a function of the stream count *at its own
        insert time* and whether it was an extremum *then*), and the
        compression pass still fires whenever the count reaches a
        multiple of the period.  Chunking by the distance to that
        multiple keeps both, so batch and scalar ingestion produce
        bit-identical summaries.
        """
        values = as_float_batch(values)
        if values.size == 0:
            return
        period = self._period
        eps2 = 2.0 * self.epsilon
        n = int(values.size)
        pos = 0
        while pos < n:
            chunk = values[pos : pos + period - self._count % period]
            m = int(chunk.size)
            base = self._count
            self._observe_batch(chunk, checked=True)
            # Delta as assigned at each item's own insert time; an item
            # that was an extremum of everything inserted before it
            # (summary plus earlier chunk items) has exactly-known rank.
            counts = np.arange(base + 1, base + m + 1, dtype=np.float64)
            deltas = np.floor(eps2 * counts).astype(np.int64) - 1
            lo, hi = math.inf, -math.inf
            if self._values:
                lo, hi = self._values[0], self._values[-1]
            before = np.concatenate(([lo], chunk[:-1]))
            prev_min = np.minimum.accumulate(before)
            before[0] = hi
            prev_max = np.maximum.accumulate(before)
            deltas[(deltas < 0) | (chunk < prev_min) | (chunk >= prev_max)] = 0
            # Stable sort keeps stream order among equal values, which
            # is where bisect_right would have put them.
            order = np.argsort(chunk, kind="stable")
            self._insert_sorted(
                chunk[order].tolist(), deltas[order].tolist()
            )
            pos += m
            if self._count % period == 0:
                self._compress()

    # ------------------------------------------------------------------
    # Queries, merging, introspection
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        return self._select(q)

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GK summaries (summed error bounds)."""
        self._merge_tables(self._merge_operand(other, "epsilon"))

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon`` (Greenwald & Khanna 2001) over
        one stream; merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return 24 * len(self._tuples) + 4 * 8
