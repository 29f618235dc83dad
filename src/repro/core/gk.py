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
"""

from __future__ import annotations

import bisect
import math
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


class GKSketch(QuantileSketch):
    """Deterministic additive rank-error summary.

    Parameters
    ----------
    epsilon:
        Additive rank-error guarantee: a q-quantile query returns a value
        whose rank is within ``epsilon * n`` of ``q * n``.
    """

    name = "gk"

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise InvalidValueError(
                f"epsilon must be in (0, 0.5), got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        self._tuples: list[_Tuple] = []
        self._values: list[float] = []  # mirror for O(log n) bisect
        self._since_compress = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
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
        self._since_compress += 1
        if self._since_compress >= max(int(1.0 / (2.0 * self.epsilon)), 1):
            self._compress()
            self._since_compress = 0

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        """Vectorised ingest that replays the scalar schedule exactly.

        Between two compression passes the summary only *gains* tuples,
        so a whole run of inserts can be merged in one sorted sweep —
        provided each item still gets the delta the scalar path would
        have assigned (a function of the stream count *at its own
        insert time* and whether it was an extremum *then*), and the
        compression pass still fires after every ``1/(2*eps)``-th
        insert.  Chunking by the distance to the next compression keeps
        both, so batch and scalar ingestion produce bit-identical
        summaries.
        """
        values = as_float_batch(values)
        if values.size == 0:
            return
        period = max(int(1.0 / (2.0 * self.epsilon)), 1)
        eps2 = 2.0 * self.epsilon
        n = int(values.size)
        pos = 0
        while pos < n:
            room = period - self._since_compress
            chunk = values[pos : pos + room]
            m = int(chunk.size)
            base = self._count
            self._observe_batch(chunk, checked=True)
            # Delta as assigned at each item's own insert time; an item
            # that was an extremum of everything inserted before it
            # (summary plus earlier chunk items) has exactly-known rank.
            deltas = np.maximum(
                np.floor(
                    eps2 * (base + 1 + np.arange(m, dtype=np.float64))
                ).astype(np.int64)
                - 1,
                0,
            )
            if self._values:
                lo, hi = self._values[0], self._values[-1]
            else:
                lo, hi = math.inf, -math.inf
            prev_min = np.empty(m)
            prev_max = np.empty(m)
            prev_min[0] = lo
            prev_max[0] = hi
            if m > 1:
                np.minimum(
                    np.minimum.accumulate(chunk[:-1]), lo,
                    out=prev_min[1:],
                )
                np.maximum(
                    np.maximum.accumulate(chunk[:-1]), hi,
                    out=prev_max[1:],
                )
            deltas[(chunk < prev_min) | (chunk >= prev_max)] = 0
            # Stable sort keeps stream order among equal values, which
            # is where bisect_right would have put them.
            order = np.argsort(chunk, kind="stable")
            svals = chunk[order].tolist()
            sdeltas = deltas[order].tolist()
            positions = np.searchsorted(
                np.asarray(self._values, dtype=np.float64),
                chunk[order],
                side="right",
            ).tolist()
            tuples = self._tuples
            old_values = self._values
            merged: list[_Tuple] = []
            merged_values: list[float] = []
            prev = 0
            for value, delta, insert_at in zip(
                svals, sdeltas, positions
            ):
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
            self._since_compress += m
            pos += m
            if self._since_compress >= period:
                self._compress()
                self._since_compress = 0

    def _compress(self) -> None:
        threshold = 2.0 * self.epsilon * self._count
        tuples = self._tuples
        i = len(tuples) - 2
        while i >= 1:  # never merge away the minimum
            current = tuples[i]
            nxt = tuples[i + 1]
            if current.g + nxt.g + nxt.delta <= threshold:
                nxt.g += current.g
                del tuples[i]
                del self._values[i]
            i -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
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

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GK summaries.

        The merged summary is a rank-weighted interleave of the tuple
        lists; its error bound is the *sum* of the inputs' epsilons, the
        classic weakness that motivated natively-mergeable sketches.
        """
        other = self._merge_operand(other, "epsilon")
        merged: list[_Tuple] = []
        values: list[float] = []
        i = j = 0
        a, b = self._tuples, other._tuples
        while i < len(a) and j < len(b):
            if a[i].value <= b[j].value:
                item = a[i]
                i += 1
            else:
                item = b[j]
                j += 1
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        for item in a[i:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        for item in b[j:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        self._tuples = merged
        self._values = values
        self._merge_bookkeeping(other)
        self._compress()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tuples)

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon`` (Greenwald & Khanna 2001) over
        one stream; merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return 24 * len(self._tuples) + 4 * 8
