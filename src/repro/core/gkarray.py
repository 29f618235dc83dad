"""GKArray — buffered Greenwald-Khanna (Luo, Wang, Yi, Cormode, VLDBJ
2016; the "improved implementation over GKAdaptive" of Sec 5.1).

Classic GK pays a sorted-insert per element.  GKArray instead appends
incoming values to a plain buffer and, when the buffer fills (or a
query arrives), sorts it and merges it into the tuple summary in one
linear sweep followed by a compression pass — amortised O(log) work
per element and a vectorisable ingest path.  The error guarantee is
the same ``epsilon`` additive rank bound as GK.
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
from repro.core.gk import _Tuple
from repro.errors import InvalidValueError

DEFAULT_EPSILON = 0.01


class GKArray(QuantileSketch):
    """Additive rank-error summary with buffered bulk inserts.

    Parameters
    ----------
    epsilon:
        Additive rank-error guarantee.
    buffer_size:
        Inserts buffered between merge sweeps; defaults to
        ``ceil(1 / (2 * epsilon))``, the summary's natural granularity.
    """

    name = "gkarray"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        buffer_size: int | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise InvalidValueError(
                f"epsilon must be in (0, 0.5), got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        if buffer_size is None:
            buffer_size = math.ceil(1.0 / (2.0 * epsilon))
        if buffer_size < 1:
            raise InvalidValueError(
                f"buffer_size must be >= 1, got {buffer_size!r}"
            )
        self.buffer_size = int(buffer_size)
        self._tuples: list[_Tuple] = []
        # Sorted mirror of the tuple values, so the flush sweep can
        # compute merge positions with one vectorised searchsorted
        # instead of walking the summary per incoming item.
        self._values: list[float] = []
        self._buffer: list[float] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._buffer.append(value)
        self._observe(value)
        if len(self._buffer) >= self.buffer_size:
            self._flush()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        # Flush in buffer-size chunks so the rank-uncertainty (delta)
        # assigned to each sweep reflects the stream size at that point
        # — one monolithic flush would pin every tuple at the full
        # 2*eps*n band and leave nothing compressible.
        total = int(values.size)
        pos = 0
        while pos < total:
            room = self.buffer_size - len(self._buffer)
            chunk = values[pos : pos + room]
            self._observe_batch(chunk, checked=True)
            self._buffer.extend(chunk.tolist())
            pos += int(chunk.size)
            if len(self._buffer) >= self.buffer_size:
                self._flush()

    def _flush(self) -> None:
        """Merge the sorted buffer into the summary in one sweep.

        Merge positions come from ``bisect_right`` against the sorted
        value mirror (strictly-less comparison, so ties land after the
        existing tuples exactly as the scalar merge placed them), and
        only the first/last incoming item can claim the exactly-known
        rank (delta 0) of a new extremum.  The merged lists are rebuilt
        with slice extends rather than a per-item merge walk.
        """
        if not self._buffer:
            return
        incoming = sorted(self._buffer)
        self._buffer.clear()
        delta = max(int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0)
        tuples = self._tuples
        old_values = self._values
        positions = [
            bisect.bisect_right(old_values, value) for value in incoming
        ]
        deltas = [delta] * len(incoming)
        if positions[0] == 0:
            deltas[0] = 0  # new minimum: rank known exactly
        if positions[-1] == len(old_values):
            deltas[-1] = 0  # new maximum
        merged: list[_Tuple] = []
        merged_values: list[float] = []
        prev = 0
        for value, item_delta, insert_at in zip(
            incoming, deltas, positions
        ):
            if insert_at > prev:
                merged.extend(tuples[prev:insert_at])
                merged_values.extend(old_values[prev:insert_at])
                prev = insert_at
            merged.append(_Tuple(value, 1, item_delta))
            merged_values.append(value)
        merged.extend(tuples[prev:])
        merged_values.extend(old_values[prev:])
        self._tuples = merged
        self._values = merged_values
        self._compress()

    def _compress(self) -> None:
        threshold = 2.0 * self.epsilon * self._count
        tuples = self._tuples
        values = self._values
        i = len(tuples) - 2
        while i >= 1:  # never merge away the minimum
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

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        self._flush()
        target = math.ceil(q * self._count)
        margin = self.epsilon * self._count
        min_rank = 0
        for item in self._tuples:
            min_rank += item.g
            if min_rank + item.delta >= target - margin and (
                min_rank >= target - margin
            ):
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

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GKArray summaries (summed error bounds, like GK)."""
        other = self._merge_operand(other, "epsilon")
        self._flush()
        if other._buffer:
            other = self._copy_flushed(other)
        merged: list[_Tuple] = []
        merged_values: list[float] = []
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
            merged_values.append(item.value)
        for item in a[i:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            merged_values.append(item.value)
        for item in b[j:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            merged_values.append(item.value)
        self._tuples = merged
        self._values = merged_values
        self._merge_bookkeeping(other)
        self._compress()

    @staticmethod
    def _copy_flushed(sketch: "GKArray") -> "GKArray":
        clone = GKArray(sketch.epsilon, sketch.buffer_size)
        clone._tuples = [
            _Tuple(t.value, t.g, t.delta) for t in sketch._tuples
        ]
        clone._values = [t.value for t in sketch._tuples]
        clone._buffer = list(sketch._buffer)
        clone._count = sketch._count
        clone._min = sketch._min
        clone._max = sketch._max
        clone._flush()
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tuples)

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon``, as GK's (Luo et al. 2016);
        merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return (
            24 * len(self._tuples) + 8 * len(self._buffer) + 4 * 8
        )
