"""Logarithmic index mapping shared by DDSketch and UDDSketch.

A value ``x > 0`` is assigned to the bucket with index
``i = ceil(log_gamma(x))`` where ``gamma = (1 + alpha) / (1 - alpha)``;
bucket ``i`` covers ``(gamma^(i-1), gamma^i]``.  The representative value
returned for a bucket is ``2 * gamma^i / (gamma + 1)``, which guarantees a
relative error of at most ``alpha`` for any value inside the bucket
(Sec 3.3 of the paper).  A batch is indexed through this thread's work
arrays (:func:`repro.core.base.work_array`), so it allocates no
batch-sized temporary.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import SCRATCH, work_array
from repro.errors import IncompatibleSketchError, InvalidValueError

#: Smallest positive value the mapping will index.  Values at or below this
#: are treated as zero by the sketches (DataDog's implementation behaves the
#: same way); it keeps indices comfortably inside int64.
MIN_INDEXABLE_VALUE = 1e-270

#: Largest value the mapping will index before ``gamma ** i`` overflows.
MAX_INDEXABLE_VALUE = 1e270


class LogarithmicMapping:
    """Maps positive values to geometrically-spaced bucket indices.

    Parameters
    ----------
    alpha:
        Maximum relative error guaranteed for values reconstructed from
        their bucket index.  Must lie in (0, 1).
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "_multiplier")

    def __init__(self, alpha: float) -> None:
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise InvalidValueError(
                f"relative accuracy alpha must be in (0, 1), got {alpha!r}"
            )
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        # 1 / log(gamma), cached for the hot indexing path.
        self._multiplier = 1.0 / self._log_gamma

    def index(self, value: float) -> int:
        """Return the bucket index of *value*.

        Raises :class:`InvalidValueError` for non-positive or non-finite
        values; callers route zeros and negatives to dedicated storage.
        """
        if not value > 0.0 or not math.isfinite(value):
            raise InvalidValueError(
                f"logarithmic mapping requires a finite positive value, "
                f"got {value!r}"
            )
        if value < MIN_INDEXABLE_VALUE or value > MAX_INDEXABLE_VALUE:
            raise InvalidValueError(
                f"value {value!r} outside indexable range "
                f"[{MIN_INDEXABLE_VALUE}, {MAX_INDEXABLE_VALUE}]"
            )
        return math.ceil(math.log(value) * self._multiplier)

    def index_batch(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`index` over an array of values inside the
        indexable range, which the caller has checked: DDSketch checks
        a batch once, through its extremes.

        The indices go into *out* (int64, as long as *values*), which is
        returned.  The logarithms go into this thread's scratch work
        array, so a batch of up to ``WORK_ARRAY_VALUES`` allocates
        nothing else.
        """
        logs = np.log(values, out=work_array(SCRATCH, values.size))
        logs *= self._multiplier
        np.ceil(logs, out=logs)
        out[...] = logs
        return out

    def value(self, index: int) -> float:
        """Return the representative value of bucket *index*.

        The representative ``2 * gamma^i / (gamma + 1)`` is the point whose
        worst-case relative error against any value in the bucket is
        exactly ``alpha``.
        """
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def lower_bound(self, index: int) -> float:
        """Exclusive lower edge ``gamma^(i-1)`` of bucket *index*."""
        return self.gamma ** (index - 1)

    def upper_bound(self, index: int) -> float:
        """Inclusive upper edge ``gamma^i`` of bucket *index*."""
        return self.gamma ** index

    def collapsed(self) -> "LogarithmicMapping":
        """Return the mapping after one uniform collapse (UDDSketch).

        Merging every adjacent bucket pair squares ``gamma``, which
        corresponds to the degraded accuracy ``alpha' = 2a / (1 + a^2)``
        (Sec 3.4 of the paper).
        """
        alpha = self.alpha
        return LogarithmicMapping(2.0 * alpha / (1.0 + alpha * alpha))

    def is_compatible_with(self, other: "LogarithmicMapping") -> bool:
        """Whether two mappings index values identically (same gamma)."""
        return math.isclose(self.gamma, other.gamma, rel_tol=1e-12)

    def require_compatible(self, other: "LogarithmicMapping") -> None:
        if not self.is_compatible_with(other):
            raise IncompatibleSketchError(
                f"cannot merge sketches with gamma={self.gamma!r} and "
                f"gamma={other.gamma!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogarithmicMapping(alpha={self.alpha!r})"


def initial_alpha(final_alpha: float, num_collapses: int) -> float:
    """Initial accuracy needed to end at *final_alpha* after collapses.

    Each uniform collapse squares gamma, i.e. doubles ``atanh(alpha)``,
    so ``alpha_0 = tanh(atanh(alpha_k) / 2**k)`` (Sec 3.4).  UDDSketch is
    configured with this tighter initial accuracy so that its guarantee
    only degrades to *final_alpha* after *num_collapses* collapses.
    """
    if num_collapses < 0:
        raise InvalidValueError(
            f"num_collapses must be >= 0, got {num_collapses!r}"
        )
    if not 0.0 < final_alpha < 1.0:
        raise InvalidValueError(
            f"final alpha must be in (0, 1), got {final_alpha!r}"
        )
    return math.tanh(math.atanh(final_alpha) / 2 ** num_collapses)


def alpha_after_collapses(alpha0: float, num_collapses: int) -> float:
    """Accuracy guarantee after *num_collapses* uniform collapses."""
    if num_collapses < 0:
        raise InvalidValueError(
            f"num_collapses must be >= 0, got {num_collapses!r}"
        )
    return math.tanh(math.atanh(alpha0) * 2 ** num_collapses)
