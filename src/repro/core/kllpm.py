"""KLL± — KLL sketches over dynamic data sets (Zhao, Maiyya, Wiener,
Agrawal, El Abbadi, VLDB 2021; reference [40] of the paper).

Sec 3.1 notes that Zhao et al. "introduced a mechanism to allow
deletions" in KLL: maintain one KLL sketch for insertions and one for
deletions, and answer rank queries as the *difference* of the two
estimated ranks.  A quantile query walks the insertion sketch's
retained values for the smallest value whose net estimated rank reaches
the target.

The construction assumes the *bounded-deletion* model: every deleted
item was previously inserted, so the net rank function is approximately
monotone and non-negative.  The adaptability experiment the paper
borrows (Sec 4.5.7) originates from this work.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.base import (
    NO_GUARANTEE,
    Guarantee,
    QuantileSketch,
    as_float_batch,
    validate_quantile,
    validate_rank_value,
)
from repro.core.kll import DEFAULT_MAX_COMPACTOR_SIZE, KLLSketch
from repro.errors import EmptySketchError, InvalidValueError


class KLLPlusMinus(QuantileSketch):
    """Deletion-capable KLL: an insert sketch minus a delete sketch.

    Parameters
    ----------
    max_compactor_size:
        ``k`` of both underlying KLL sketches.
    seed:
        Seed for both sketches' compaction coins.
    """

    name = "kllpm"

    def __init__(
        self,
        max_compactor_size: int = DEFAULT_MAX_COMPACTOR_SIZE,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        self.max_compactor_size = int(max_compactor_size)
        self._inserts = KLLSketch(max_compactor_size, seed=seed)
        self._deletes = KLLSketch(
            max_compactor_size,
            seed=None if seed is None else seed + 1,
        )

    # ------------------------------------------------------------------
    # Ingestion (insertions and deletions)
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        self._inserts.update(value)
        self._observe(float(value))

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._inserts.update_batch(values)
        self._observe_batch(values, checked=True)

    def delete(self, value: float) -> None:
        """Remove one previously-inserted occurrence of *value*.

        Bounded-deletion model: deleting values never inserted leaves
        the net rank estimates undefined.
        """
        self.delete_batch(np.asarray([value], dtype=np.float64))

    def delete_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise InvalidValueError("batch contains non-finite values")
        if self._deletes.count + values.size > self._inserts.count:
            raise InvalidValueError(
                "cannot delete more items than were inserted"
            )
        self._deletes.update_batch(values)
        self._count -= int(values.size)

    @property
    def num_deleted(self) -> int:
        return self._deletes.count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rank(self, value: float) -> int:
        """Net estimated rank: inserted rank minus deleted rank."""
        validate_rank_value(value)
        if self._count == 0:
            raise EmptySketchError("KLLPlusMinus has seen no data")
        inserted = self._inserts.rank(value)
        deleted = (
            self._deletes.rank(value) if self._deletes.count else 0
        )
        return max(0, min(inserted - deleted, self._count))

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        if self._count == 0:
            raise EmptySketchError("KLLPlusMinus has seen no data")
        if self._deletes.count == 0:
            return self._inserts.quantile(q)
        target = max(math.ceil(q * self._count), 1)
        # Candidate values are the insert sketch's retained items; the
        # answer is the smallest candidate whose net rank reaches the
        # target (net rank is monotone under bounded deletions).
        values, weights = self._inserts._weighted_samples()
        cum_inserted = np.cumsum(weights)
        scale_ins = self._inserts.count / cum_inserted[-1]
        del_values, del_weights = self._deletes._weighted_samples()
        cum_deleted = np.cumsum(del_weights)
        scale_del = self._deletes.count / cum_deleted[-1]
        positions = np.searchsorted(del_values, values, side="right")
        deleted_at = np.where(
            positions > 0, cum_deleted[positions - 1], 0
        )
        net = cum_inserted * scale_ins - deleted_at * scale_del
        index = int(np.searchsorted(net, target, side="left"))
        index = min(index, values.size - 1)
        return float(values[index])

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(other)
        self._inserts.merge(other._inserts)
        if other._deletes.count:
            self._deletes.merge(other._deletes)
        # _merge_bookkeeping adds other's *net* count, which is exactly
        # this sketch's net-count semantics.
        self._merge_bookkeeping(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_retained(self) -> int:
        return self._inserts.num_retained + self._deletes.num_retained

    def guarantee(self) -> Guarantee:
        """``none``: the net rank carries both KLL sketches' errors, which
        scale with inserts plus deletes, and no cited constant bounds
        that against the net count."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        return self._inserts.size_bytes() + self._deletes.size_bytes()
