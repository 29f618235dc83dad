"""Random — the buffer-collapse quantile sketch (Manku, Rajagopalan,
Lindsay, SIGMOD 1999; Sec 5.2.1 of the paper).

The ancestor of KLL: a fixed set of buffers of capacity ``k``, each
carrying an integer *weight* (how many stream elements each retained
item represents).  Incoming items fill a weight-1 buffer; when all
buffers are full, the two lightest buffers *collapse* — their items are
merged in weighted sorted order and ``k`` survivors are selected at
evenly-spaced weighted positions (with a random phase), producing one
buffer whose weight is the sum of the inputs'.  A query materialises
the weighted items and selects by cumulative weight.

The paper's lineage argument (Sec 3.1/5.2.1) is that KLL strictly
improves this scheme with geometrically-shrinking compactor
capacities; ``benchmarks/bench_related_work.py`` reproduces that
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
    WeightedSampleSketch,
    as_float_batch,
)
from repro.errors import InvalidValueError

DEFAULT_NUM_BUFFERS = 8
DEFAULT_BUFFER_SIZE = 128


class _Buffer:
    __slots__ = ("weight", "items")

    def __init__(self, weight: int, items: list[float]) -> None:
        self.weight = weight
        self.items = items


class RandomSketch(WeightedSampleSketch):
    """Manku et al.'s buffer-collapse sketch.

    Parameters
    ----------
    num_buffers:
        Number of equal-size buffers (``b`` in the original paper).
    buffer_size:
        Capacity ``k`` of each buffer; total space is ``b * k``.
    seed:
        Seed for the random phase of each collapse.
    """

    name = "random"
    #: The active buffer is the last run: it follows equal sealed items.
    _live_first = False

    def __init__(
        self,
        num_buffers: int = DEFAULT_NUM_BUFFERS,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if num_buffers < 2:
            raise InvalidValueError(
                f"num_buffers must be >= 2, got {num_buffers!r}"
            )
        if buffer_size < 2:
            raise InvalidValueError(
                f"buffer_size must be >= 2, got {buffer_size!r}"
            )
        self.num_buffers = int(num_buffers)
        self.buffer_size = int(buffer_size)
        self._rng = np.random.default_rng(seed)
        self._full: list[_Buffer] = []
        self._active: list[float] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._active.append(value)
        self._observe(value)
        if len(self._active) >= self.buffer_size:
            self._seal_active()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._observe_batch(values, checked=True)
        pos = 0
        while pos < values.size:
            room = self.buffer_size - len(self._active)
            chunk = values[pos : pos + room]
            self._active.extend(chunk.tolist())
            pos += int(chunk.size)
            if len(self._active) >= self.buffer_size:
                self._seal_active()

    def _seal_active(self) -> None:
        self._drop_query_caches()
        self._full.append(_Buffer(1, self._active))
        self._active = []
        while len(self._full) >= self.num_buffers:
            self._collapse_lightest_pair()

    def _collapse_lightest_pair(self) -> None:
        """Collapse the two lightest buffers into one of summed weight.

        Survivors sit at weighted positions ``j * W + phase`` of the
        merged sequence, the unbiased selection of the original
        algorithm (each input item survives with probability
        proportional to its weight).
        """
        self._full.sort(key=lambda buffer: buffer.weight)
        first, second = self._full[0], self._full[1]
        combined_weight = first.weight + second.weight
        merged = np.concatenate(
            [
                np.asarray(first.items, dtype=np.float64),
                np.asarray(second.items, dtype=np.float64),
            ]
        )
        weights = np.concatenate(
            [
                np.full(len(first.items), first.weight, dtype=np.int64),
                np.full(len(second.items), second.weight, dtype=np.int64),
            ]
        )
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        cumulative = np.cumsum(weights[order])
        total_weight = int(cumulative[-1])
        num_survivors = total_weight // combined_weight
        phase = int(self._rng.integers(combined_weight))
        # Survivor j is the item covering weighted position
        # phase + j * W of the merged sequence: the first item whose
        # cumulative weight exceeds the target.
        targets = phase + combined_weight * np.arange(
            num_survivors, dtype=np.int64
        )
        chosen = np.searchsorted(cumulative, targets, side="right")
        survivors = merged[chosen].tolist()
        self._full = self._full[2:]
        self._full.append(_Buffer(combined_weight, survivors))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _live_run(self) -> list[float]:
        return self._active

    def _sealed_runs(self) -> list[tuple[list[float], int]]:
        return [(buffer.items, buffer.weight) for buffer in self._full]

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other, "buffer_size", "num_buffers")
        self._drop_query_caches()
        for buffer in other._full:
            self._full.append(_Buffer(buffer.weight, list(buffer.items)))
        self._merge_bookkeeping(other)
        for value in other._active:
            self._active.append(value)
            if len(self._active) >= self.buffer_size:
                self._seal_active()
        while len(self._full) >= self.num_buffers:
            self._collapse_lightest_pair()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_retained(self) -> int:
        return sum(len(b.items) for b in self._full) + len(self._active)

    def guarantee(self) -> Guarantee:
        """``none``: no cited formula maps ``b`` x ``k`` to a bound."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        return 8 * self.num_retained + 8 * len(self._full) + 4 * 8
