"""GKArray — buffered Greenwald-Khanna (Luo, Wang, Yi, Cormode, VLDBJ
2016; the "improved implementation over GKAdaptive" of Sec 5.1).

Classic GK pays a sorted-insert per element.  GKArray instead appends
incoming values to a plain buffer and, when the buffer fills (or a
query arrives), sorts it and merges it into the tuple summary in one
linear sweep followed by a compression pass — amortised O(log) work
per element and a vectorisable ingest path.  The error guarantee is
the same ``epsilon`` additive rank bound as GK; the summary itself is
:class:`~repro.core.gk.GKSummary`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.base import Guarantee, QuantileSketch, as_float_batch
from repro.core.gk import DEFAULT_EPSILON, GKSummary
from repro.errors import InvalidValueError


class GKArray(GKSummary):
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
        super().__init__(epsilon)
        if buffer_size is None:
            buffer_size = math.ceil(1.0 / (2.0 * epsilon))
        if buffer_size < 1:
            raise InvalidValueError(
                f"buffer_size must be >= 1, got {buffer_size!r}"
            )
        self.buffer_size = int(buffer_size)
        self._buffer: list[float] = []

    def copy(self) -> "GKArray":
        clone = self._copy_table_into(GKArray(self.epsilon, self.buffer_size))
        clone._buffer = list(self._buffer)
        return clone

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
        """Sweep the sorted buffer into the summary, then compress.

        Every incoming item gets the band of the stream size now; only
        the first/last can claim the exactly-known rank (delta 0) of a
        new extremum.
        """
        if not self._buffer:
            return
        incoming = sorted(self._buffer)
        self._buffer.clear()
        delta = max(int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0)
        deltas = [delta] * len(incoming)
        old_values = self._values
        if not old_values or incoming[0] < old_values[0]:
            deltas[0] = 0  # new minimum: rank known exactly
        if not old_values or incoming[-1] >= old_values[-1]:
            deltas[-1] = 0  # new maximum
        self._insert_sorted(incoming, deltas)
        self._compress()

    def _flushed(self) -> "GKArray":
        if not self._buffer:
            return self
        clone = self.copy()
        clone._flush()
        return clone

    # ------------------------------------------------------------------
    # Queries, merging, introspection
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        return self._select(q)

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GKArray summaries (summed error bounds, like GK);
        *other*'s buffer is swept into a copy, never into *other*."""
        self._merge_tables(self._merge_operand(other, "epsilon"))

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon``, as GK's (Luo et al. 2016);
        merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return 24 * len(self._tuples) + 8 * len(self._buffer) + 4 * 8
