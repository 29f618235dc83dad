"""Exact quantile computation by retaining the full stream.

This is the ground truth the paper measures every sketch against: it
stores all values, so its memory grows linearly with the stream while
every sketch stays constant (Table 3).  Used by the accuracy harness to
compute true quantiles, true ranks, and the relative/rank errors of
Sec 2.2.
"""

from __future__ import annotations

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


class ExactQuantiles(QuantileSketch):
    """Reference "sketch" storing every value it sees."""

    name = "exact"

    def __init__(self) -> None:
        super().__init__()
        self._chunks: list[np.ndarray] = []
        self._sorted: np.ndarray | None = None

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._chunks.append(np.asarray([value]))
        self._sorted = None
        self._observe(value)

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._chunks.append(values.copy())
        self._sorted = None
        self._observe_batch(values, checked=True)

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        self._chunks.extend(chunk.copy() for chunk in other._chunks)
        self._sorted = None
        self._merge_bookkeeping(other)

    def _sorted_values(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.concatenate(self._chunks))
            self._chunks = [self._sorted]
        return self._sorted

    def quantile(self, q: float) -> float:
        """Exact q-quantile: the item of rank ``ceil(q * N)`` (Sec 2.1)."""
        q = validate_quantile(q)
        self._require_nonempty()
        values = self._sorted_values()
        rank = max(math.ceil(q * values.size), 1)
        return float(values[rank - 1])

    def rank(self, value: float) -> int:
        """Exact ``Rank(value)``: number of items ``<= value``."""
        validate_rank_value(value)
        self._require_nonempty()
        return int(np.searchsorted(self._sorted_values(), value, side="right"))

    def values(self) -> np.ndarray:
        """Sorted copy of everything inserted so far."""
        self._require_nonempty()
        return self._sorted_values().copy()

    def guarantee(self) -> Guarantee:
        """Exact answers: additive rank error 0."""
        return Guarantee("rank", 0.0)

    def size_bytes(self) -> int:
        return 8 * self._count + 3 * 8
