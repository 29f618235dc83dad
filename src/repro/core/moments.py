"""Moments Sketch — quantile estimation from power sums (Gan et al.,
VLDB 2018; Sec 3.2 of the paper).

The sketch retains only ``min``, ``max``, the count, and the first ``k``
power sums of the (optionally transformed) data — under 20 numbers for
``k = 12`` — which makes its merge a plain vector addition, the fastest
of all the sketches in the paper's Fig 5c.  Quantile queries are the
expensive operation: the stored moments are converted to Chebyshev
moments on the observed range and a maximum-entropy density matching
them is fitted (:mod:`repro.core.maxent`); quantiles are read off the
fitted CDF.

There is no per-quantile error guarantee — only the average error bound
discussed in the paper — and accuracy degrades when the data deviates
from a smooth distribution (the real-world-data weakness of Sec 4.5).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import (
    BATCH,
    NO_GUARANTEE,
    SCRATCH,
    Guarantee,
    QuantileSketch,
    as_float_batch,
    validate_quantile,
    validate_rank_value,
    work_array,
)
from repro.core.maxent import (
    DEFAULT_GRID_SIZE,
    MaxEntropySolver,
    MaxEntSolution,
    chebyshev_grid,
    power_to_chebyshev_moments,
)
from repro.errors import (
    InsufficientDataError,
    InvalidValueError,
    SolverError,
)

DEFAULT_NUM_MOMENTS = 12

#: Minimum cardinality before the solver is well posed (Sec 3.2).
MIN_CARDINALITY = 5

_TRANSFORMS = ("none", "log", "arcsinh")

#: Solver grid bounds: the trapezoid rule needs two points, and a query
#: allocates ``2k + 1`` rows over the grid, so the top stays 64x the
#: msketch default — which also bounds what decoded bytes can request.
MIN_GRID_SIZE = 2
MAX_GRID_SIZE = 1 << 16


@functools.lru_cache(maxsize=8)
def _binomial_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``C(i, j)`` and ``max(i - j, 0)`` for ``0 <= i, j <= k``.

    Both ``(k + 1, k + 1)`` arrays are read-only: every sketch with
    *k* moments shares them.
    """
    binomials = np.array(
        [[math.comb(i, j) for j in range(k + 1)] for i in range(k + 1)],
        dtype=np.float64,
    )
    index = np.arange(k + 1)
    degrees = np.maximum(index[:, None] - index[None, :], 0)
    binomials.flags.writeable = False
    degrees.flags.writeable = False
    return binomials, degrees


def _summed_powers(sums: np.ndarray, centred: np.ndarray) -> np.ndarray:
    """A new array of ``sums[i] + sum(centred ** i)`` for every ``i``.

    The powers are a cumulative product multiplied in place, in this
    thread's scratch work array.  Power 0 adds the count: a float sum
    of ones is exactly that, so this is the float program of summing
    ``ones * centred * centred ...`` term by term.  Raises
    :class:`~repro.errors.InvalidValueError`, with *sums* untouched, if
    any of them would not be finite.
    """
    summed = sums.copy()
    summed[0] += centred.size
    powers, scratch = centred, work_array(SCRATCH, centred.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, summed.size):
            summed[i] += powers.sum()
            if i + 1 < summed.size:
                powers = np.multiply(powers, centred, out=scratch)
    if not np.isfinite(summed).all():
        raise _overflow_error()
    return summed


def _added_powers(sums: np.ndarray, centred: float) -> list[float]:
    """``sums[i] + centred ** i`` for one value, as Python floats: the
    float program of adding each power to the array in place.

    Raises :class:`~repro.errors.InvalidValueError` if any of them
    would not be finite.
    """
    added: list[float] = sums.tolist()
    power = 1.0
    for i in range(len(added)):
        added[i] += power
        power *= centred
    if not all(map(math.isfinite, added)):
        raise _overflow_error()
    return added


def _overflow_error() -> InvalidValueError:
    return InvalidValueError(
        "value out of range: a Moments power sum would overflow"
    )


def _exp(value: float) -> float:
    """``math.exp``, but inf past the float range (the caller clamps an
    answer to the observed range) instead of an ``OverflowError``."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _float_powers(base: float, count: int) -> list[float]:
    """``base ** d`` for ``d < count`` by Python's float pow (not
    ``np.power``: SIMD pow may differ by an ulp), with a power out of
    range as a signed infinity instead of an ``OverflowError``."""
    try:
        return [base ** d for d in range(count)]
    except OverflowError:  # the powers cannot all be finite anyway
        with np.errstate(over="ignore"):
            powers = np.power(base, np.arange(count, dtype=np.float64))
        return list(powers.tolist())


class MomentsSketch(QuantileSketch):
    """Constant-size sketch holding power sums of the stream.

    Parameters
    ----------
    num_moments:
        Number of power sums ``k``; the paper keeps 12 (more than 15 is
        numerically unstable, Sec 4.2).
    transform:
        Pointwise transform applied before accumulating powers:
        ``"none"``, ``"log"`` (requires positive data; the paper applies
        it to the wide-range Pareto and Power data sets) or
        ``"arcsinh"`` (sign-safe alternative recommended for large
        magnitudes).
    grid_size:
        Quadrature grid of the maximum-entropy solver; raising it trades
        query time for accuracy (Sec 4.5.5).  Between 2 and
        ``MAX_GRID_SIZE`` points.
    log_moments:
        Additionally keep the ``k`` log moments ``sum(ln(x)^i)`` and fit
        the density against both moment sets jointly — the full design
        of Sec 3.2 (the reference Java implementation the paper
        benchmarks keeps only standard moments, which is this class's
        default).  Requires strictly positive values and
        ``transform="none"``.
    """

    name = "moments"

    def __init__(
        self,
        num_moments: int = DEFAULT_NUM_MOMENTS,
        transform: str = "none",
        grid_size: int = DEFAULT_GRID_SIZE,
        log_moments: bool = False,
    ) -> None:
        super().__init__()
        if num_moments < 2:
            raise InvalidValueError(
                f"num_moments must be >= 2, got {num_moments!r}"
            )
        if transform not in _TRANSFORMS:
            raise InvalidValueError(
                f"unknown transform {transform!r}; expected one of "
                f"{_TRANSFORMS}"
            )
        if not MIN_GRID_SIZE <= grid_size <= MAX_GRID_SIZE:
            raise InvalidValueError(
                f"grid_size must be in [{MIN_GRID_SIZE}, {MAX_GRID_SIZE}], "
                f"got {grid_size!r}"
            )
        if log_moments and transform != "none":
            raise InvalidValueError(
                "log_moments already covers the wide-range case; "
                "combine it only with transform='none'"
            )
        self.num_moments = int(num_moments)
        self.transform = transform
        self.log_moments = bool(log_moments)
        # power_sums[i] == sum((t(x) - origin) ** i); index 0 is the
        # count.  Accumulating around the first observed value instead
        # of zero avoids the catastrophic cancellation that otherwise
        # hits data whose offset dwarfs its spread (e.g. U(50, 60) at
        # k = 12) — the instability family the paper reports above ~15
        # moments.
        self._power_sums = np.zeros(self.num_moments + 1)
        self._origin: float | None = None
        self._t_min = np.inf
        self._t_max = -np.inf
        # Log-domain power sums (only maintained with log_moments).
        self._log_power_sums = np.zeros(self.num_moments + 1)
        self._log_origin: float | None = None
        self._l_min = np.inf
        self._l_max = -np.inf
        self.grid_size = int(grid_size)
        self._solver = MaxEntropySolver(grid_size=self.grid_size)
        self._solution: MaxEntSolution | None = None
        self._solution_count = -1
        self._solution_domain = "single"

    # ------------------------------------------------------------------
    # Transform helpers
    # ------------------------------------------------------------------

    def _apply_transform(
        self, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The transformed *values*, into *out* if given; *values*
        themselves without a transform."""
        if self.transform == "log":
            if (values <= 0).any():
                raise InvalidValueError(
                    "log transform requires strictly positive values"
                )
            return np.log(values, out=out)
        if self.transform == "arcsinh":
            return np.arcsinh(values, out=out)
        return values

    def _invert_transform(self, value: float) -> float:
        if self.transform == "log":
            return _exp(value)
        if self.transform == "arcsinh":
            try:
                return math.sinh(value)
            except OverflowError:  # past the float range, as _exp
                return math.copysign(math.inf, value)
        return value

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        # Every check runs before any state mutates, so a refused value
        # leaves the sketch (and its cached solution) as it was.
        if self.log_moments and value <= 0:
            raise InvalidValueError(
                "log moments require strictly positive values"
            )
        if self.transform == "log":
            if value <= 0:
                raise InvalidValueError(
                    "log transform requires strictly positive values"
                )
            t = math.log(value)
        elif self.transform == "arcsinh":
            t = math.asinh(value)
        else:
            t = value
        origin = t if self._origin is None else self._origin
        sums = _added_powers(self._power_sums, t - origin)
        if self.log_moments:
            log_value = math.log(value)
            log_origin = (
                log_value if self._log_origin is None else self._log_origin
            )
            log_sums = _added_powers(
                self._log_power_sums, log_value - log_origin
            )
            self._log_power_sums[:] = log_sums
            self._log_origin = log_origin
            if log_value < self._l_min:
                self._l_min = log_value
            if log_value > self._l_max:
                self._l_max = log_value
        self._power_sums[:] = sums
        self._origin = origin
        if t < self._t_min:
            self._t_min = t
        if t > self._t_max:
            self._t_max = t
        self._observe(value)
        self._solution = None

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        if self.log_moments and bool((values <= 0).any()):
            # Checked before any state mutates so rejection is atomic.
            raise InvalidValueError(
                "log moments require strictly positive values"
            )
        # The transform and the centring write this thread's batch work
        # array, and the power loop its scratch one.
        work = work_array(BATCH, values.size)
        transformed = self._apply_transform(values, out=work)
        origin = (
            float(transformed[0]) if self._origin is None else self._origin
        )
        # First extreme wins, as in the scalar path and _observe_batch
        # (min()/max() would keep the last of 0.0 and -0.0).
        t_min = float(transformed[transformed.argmin()])
        t_max = float(transformed[transformed.argmax()])
        sums = _summed_powers(
            self._power_sums, np.subtract(transformed, origin, out=work)
        )
        if self.log_moments:
            logs = np.log(values, out=work)
            log_origin = (
                float(logs[0]) if self._log_origin is None
                else self._log_origin
            )
            l_min, l_max = float(logs.min()), float(logs.max())
            self._log_power_sums = _summed_powers(
                self._log_power_sums, np.subtract(logs, log_origin, out=logs)
            )
            self._log_origin = log_origin
            self._l_min = min(self._l_min, l_min)
            self._l_max = max(self._l_max, l_max)
        self._power_sums = sums
        self._origin = origin
        self._t_min = min(self._t_min, t_min)
        self._t_max = max(self._t_max, t_max)
        self._observe_batch(values, checked=True)
        self._solution = None

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(
            other, "num_moments", "transform", "log_moments"
        )
        # Both folds are built, and checked, before any state moves.
        sums, origin = self._merge_sums(
            self._power_sums, self._origin,
            other._power_sums, other._origin,
        )
        if self.log_moments:
            log_sums, log_origin = self._merge_sums(
                self._log_power_sums, self._log_origin,
                other._log_power_sums, other._log_origin,
            )
            self._log_power_sums, self._log_origin = log_sums, log_origin
            self._l_min = min(self._l_min, other._l_min)
            self._l_max = max(self._l_max, other._l_max)
        self._power_sums, self._origin = sums, origin
        self._t_min = min(self._t_min, other._t_min)
        self._t_max = max(self._t_max, other._t_max)
        self._merge_bookkeeping(other)
        self._solution = None

    @staticmethod
    def _recenter_sums(sums: np.ndarray, shift: float) -> np.ndarray:
        """Convert sums of ``(t - o2)^i`` into sums of ``(t - o1)^i``.

        With ``shift = o2 - o1``:
        ``(t - o1)^i = sum_j C(i,j) shift^(i-j) (t - o2)^j``.

        Row ``i`` of the term matrix is summed left to right, so the
        result is bit-identical to the scalar double loop it replaced
        (``tests/core/test_moments.py`` keeps that loop as reference).
        """
        binomials, degrees = _binomial_table(sums.size - 1)
        powers = np.array(_float_powers(shift, sums.size))
        terms = binomials * powers[degrees] * sums
        # "+ 0.0" turns an all-(-0.0) row into the loop's 0.0 start.
        return terms.cumsum(axis=1).diagonal() + 0.0

    @classmethod
    def _merge_sums(
        cls,
        sums: np.ndarray,
        origin: float | None,
        other_sums: np.ndarray,
        other_origin: float | None,
    ) -> tuple[np.ndarray, float | None]:
        """``sums`` plus ``other_sums`` recentred on ``origin``, as a new
        array; :class:`~repro.errors.InvalidValueError` if a merged sum
        would not be finite."""
        if other_origin is None:  # other is empty
            return sums, origin
        with np.errstate(over="ignore", invalid="ignore"):
            if origin is None:  # self is empty: adopt other's accumulation
                origin = other_origin
            elif other_origin != origin:
                other_sums = cls._recenter_sums(
                    other_sums, other_origin - origin
                )
            merged = sums + other_sums
        if not np.isfinite(merged).all():
            raise _overflow_error()
        return merged, origin

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _scale_sums(
        power_sums: np.ndarray, lo: float, hi: float, origin: float
    ) -> np.ndarray:
        """Power moments of the data rescaled to [-1, 1].

        *power_sums* hold ``sum((t - origin)^i)``; with ``s`` the
        midpoint and ``h`` the half-width of the observed range,
        ``E[((t - s)/h)^i]`` expands binomially with coefficient
        ``d = origin - s``.  Because the origin is an observed value,
        ``|d / h| <= 1`` and the expansion stays well conditioned —
        this is what keeps the re-scaling stable where zero-origin
        sums would cancel catastrophically.
        """
        n = float(power_sums[0])
        s = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        if h <= 0.0:
            raise InsufficientDataError("all observed values are identical")
        scaled = MomentsSketch._recenter_sums(power_sums, origin - s)
        scaled[0] = 1.0
        # One division by the scalar divisors n * h^i: IEEE division
        # rounds each element exactly as the scalar loop did.
        powers = _float_powers(h, scaled.size)
        scaled[1:] /= [n * power for power in powers[1:]]
        return scaled

    def _scaled_power_moments(self) -> np.ndarray:
        assert self._origin is not None
        return self._scale_sums(
            self._power_sums, self._t_min, self._t_max, self._origin
        )

    def _drop_query_caches(self) -> None:
        self._solution = None

    def _solve(self) -> MaxEntSolution:
        self._require_nonempty()
        if self._count < MIN_CARDINALITY:
            raise InsufficientDataError(
                f"Moments Sketch requires at least {MIN_CARDINALITY} "
                f"values, has {self._count}"
            )
        if self._solution is not None and self._solution_count == self._count:
            return self._solution
        # The joint basis only adds information when the data spans a
        # wide range; on narrow data the log features are collinear
        # with the standard ones and would destabilise Newton.
        wide_range = (
            self.log_moments
            and self._l_max - self._l_min > math.log(10.0)
        )
        if wide_range:
            try:
                self._solution = self._solve_joint()
                self._solution_domain = "joint"
            except SolverError:
                # Degenerate joint system: the log-domain fit alone is
                # the right tool for wide-range data.
                self._solution = self._solve_log_only()
                self._solution_domain = "joint"
        else:
            cheb = power_to_chebyshev_moments(self._scaled_power_moments())
            self._solution = self._solver.solve(cheb)
            self._solution_domain = "single"
        self._solution_count = self._count
        return self._solution

    def _solve_log_only(self) -> MaxEntSolution:
        """Fit against the log moments alone (log-domain grid)."""
        cheb = power_to_chebyshev_moments(
            self._scale_sums(
                self._log_power_sums, self._l_min, self._l_max,
                self._log_origin,
            )
        )
        return self._solver.solve(cheb)

    def _solve_joint(self) -> MaxEntSolution:
        """Fit against standard AND log moments jointly (full Sec 3.2).

        The density is parameterised over ``u``, the log of the value
        rescaled to [-1, 1]; the basis holds Chebyshev features of both
        ``u`` and ``v(u)`` (the rescaled raw value), so the fitted
        density matches both moment sets at once.
        """
        k = self.num_moments
        # The table the single-domain solve reads: one per (grid, k).
        grid_u, basis_2k = chebyshev_grid(self.grid_size, 2 * k)
        basis_u = basis_2k[: k + 1]
        l_mid = 0.5 * (self._l_min + self._l_max)
        l_half = 0.5 * (self._l_max - self._l_min)
        x_grid = np.exp(grid_u * l_half + l_mid)
        t_mid = 0.5 * (self._t_min + self._t_max)
        t_half = 0.5 * (self._t_max - self._t_min)
        v_grid = np.clip((x_grid - t_mid) / t_half, -1.0, 1.0)

        basis_v = np.polynomial.chebyshev.chebvander(v_grid, k).T[1:]
        basis = np.vstack([basis_u, basis_v])

        moments_u = power_to_chebyshev_moments(
            self._scale_sums(
                self._log_power_sums, self._l_min, self._l_max,
                self._log_origin,
            )
        )
        moments_v = power_to_chebyshev_moments(
            self._scale_sums(
                self._power_sums, self._t_min, self._t_max, self._origin
            )
        )[1:]
        moments = np.concatenate([moments_u, moments_v])
        return self._solver.solve_system(grid_u, basis, moments)

    def quantile(self, q: float) -> float:
        return self.quantiles([q])[0]

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Fit the density once and read every q off its CDF.

        Each q is interpolated on the canonical interval, mapped back
        through the scalar inverse transform and clamped to the
        observed range.
        """
        qs = [validate_quantile(q) for q in qs]
        if not qs:
            return []
        try:
            solution = self._solve()
        except InsufficientDataError:
            if self._count == 0:
                raise
            # Degenerate stream: every value identical, or too few values
            # for the solver; fall back to the range endpoints.
            return [self._min if q <= 0.5 else self._max for q in qs]
        lo, hi = self._t_min, self._t_max
        invert: Callable[[float], float] = self._invert_transform
        if self._solution_domain == "joint":
            lo, hi, invert = self._l_min, self._l_max, _exp
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        scaled: list[float] = np.interp(
            qs, solution.cdf, solution.grid
        ).tolist()
        low, high = self._min, self._max
        return [min(max(invert(x * half + mid), low), high) for x in scaled]

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        if value >= self._max:
            return self._count
        if value < self._min:
            return 0
        solution = self._solve()
        if self._solution_domain == "joint":
            l_mid = 0.5 * (self._l_min + self._l_max)
            l_half = 0.5 * (self._l_max - self._l_min)
            scaled = (math.log(value) - l_mid) / l_half
        else:
            s = 0.5 * (self._t_min + self._t_max)
            h = 0.5 * (self._t_max - self._t_min)
            transformed = float(
                self._apply_transform(
                    np.asarray([value], dtype=np.float64)
                )[0]
            )
            scaled = (transformed - s) / h
        estimate = int(round(solution.cdf_at(scaled) * self._count))
        # value >= _min here, so at least the minimum itself is <=
        # value; the fitted CDF's tail must not round that down to 0.
        return max(1, min(estimate, self._count))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def power_sums(self) -> np.ndarray:
        """Copy of the origin-centred power sums (index 0 is the count).

        Entry ``i`` holds ``sum((t - origin)^i)`` where ``origin`` is
        the first observed (transformed) value; see the constructor
        notes on why accumulation is centred.
        """
        return self._power_sums.copy()

    def guarantee(self) -> Guarantee:
        """``none``: the maximum-entropy fit has no cited error bound."""
        return NO_GUARANTEE

    def size_bytes(self) -> int:
        # k + 1 power sums plus min/max in both domains and the count:
        # fewer than 20 numbers at the paper's k = 12 (Sec 4.3).  The
        # full Sec 3.2 design with log moments roughly doubles this.
        numbers = self._power_sums.size + 5
        if self.log_moments:
            numbers += self._log_power_sums.size + 2
        return 8 * numbers
