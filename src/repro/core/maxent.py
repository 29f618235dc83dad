"""Maximum-entropy density estimation from moments.

This is the numerical core of the Moments Sketch (Gan et al., VLDB 2018):
given the first ``k`` moments of a distribution supported on a known
interval, find the density maximising Shannon entropy subject to matching
those moments.  The solution has the form
``p(x) = exp(sum_j theta_j * T_j(x))`` over a Chebyshev basis, and the
coefficients ``theta`` are found by Newton's method on the convex dual

    F(theta) = integral exp(theta . T(x)) dx  -  theta . m

whose gradient is the moment mismatch and whose Hessian is the Gram
matrix of the basis under ``p`` — both evaluated on a fixed quadrature
grid, exactly as the reference msketch solver does.  On the Chebyshev
basis ``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2``, so one matvec against
``T_0 .. T_2k``, pre-multiplied by the quadrature weights, yields the
gradient and the whole Hessian of a step.

Newton starts from the better (lower ``F``) of two densities: the
uniform one, and the order-1 maximum-entropy density ``exp(a + b x)``
whose mean is the first Chebyshev moment.  Wide-range data under a
log transform is close to the latter, so the solve starts near its
answer instead of travelling there in short damped steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import SolverError

#: Default quadrature grid resolution (msketch uses 1024).
DEFAULT_GRID_SIZE = 1024

#: Newton iteration budget and gradient-norm convergence threshold.
DEFAULT_MAX_ITERATIONS = 200
DEFAULT_TOLERANCE = 1e-9

#: The order-1 start's slope is rounded to a multiple of this, so
#: moment vectors that differ only by rounding (a batch-fed and a
#: scalar-fed sketch) start Newton from the same point.
START_SLOPE_QUANTUM = 1.0 / 16.0
#: Scalar Newton steps from Cohen's Pade start for the slope; each
#: roughly squares a relative error that starts below 5 %.
_SLOPE_NEWTON_STEPS = 5


@functools.lru_cache(maxsize=16)
def _chebyshev_power_rows(k: int) -> tuple[np.ndarray, ...]:
    """Power-basis coefficients of ``T_0 .. T_k``, one read-only row each."""
    cheb2poly = np.polynomial.chebyshev.cheb2poly
    rows = tuple(cheb2poly(np.eye(j + 1)[j]) for j in range(k + 1))
    for row in rows:
        row.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=16)
def chebyshev_grid(
    grid_size: int, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical grid ``linspace(-1, 1, grid_size)`` and its basis
    ``basis[j, g] = T_j(grid[g])`` for ``j <= degree``, both read-only:
    every solve on that grid shares them."""
    grid = np.linspace(-1.0, 1.0, grid_size)
    vander = np.polynomial.chebyshev.chebvander(grid, degree)
    grid.flags.writeable = False
    vander.flags.writeable = False
    return grid, vander.T


@functools.lru_cache(maxsize=16)
def _product_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``i + j`` and ``|i - j|`` for ``0 <= i, j <= k``, read-only."""
    index = np.arange(k + 1)
    upper = index[:, None] + index[None, :]
    lower = np.abs(index[:, None] - index[None, :])
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


@functools.lru_cache(maxsize=16)
def _trapezoid_weights(grid_size: int, dx: float) -> np.ndarray:
    """Trapezoid quadrature weights of a *grid_size*-point grid with
    spacing *dx*, read-only: every solve on that grid shares them."""
    weights = np.full(grid_size, dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights.flags.writeable = False
    return weights


def grid_weights(grid: np.ndarray) -> np.ndarray:
    """The cached trapezoid weights of the evenly spaced *grid*."""
    return _trapezoid_weights(grid.size, float(grid[1] - grid[0]))


@functools.lru_cache(maxsize=16)
def weighted_chebyshev_table(grid_size: int, degree: int) -> np.ndarray:
    """``chebyshev_grid(grid_size, degree)``'s basis times the grid's
    trapezoid weights, read-only: ``table @ exp(theta . T - shift)``
    scaled by ``e^shift`` gives the Chebyshev expectations of a step
    with no per-step ``p * w`` temporaries."""
    grid, basis = chebyshev_grid(grid_size, degree)
    table = basis * grid_weights(grid)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    identity = np.eye(n)
    identity.flags.writeable = False
    return identity


def chebyshev_hessian(expectations: np.ndarray) -> np.ndarray:
    """Gram matrix ``E_p[T_i T_j]`` for ``i, j <= k`` from the ``2k + 1``
    Chebyshev expectations ``c_j = E_p[T_j]``.

    ``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2`` holds at every grid point,
    so under any quadrature ``E_p[T_i T_j] = (c_{i+j} + c_{|i-j|}) / 2``.
    """
    upper, lower = _product_indices(expectations.size // 2)
    return 0.5 * (expectations[upper] + expectations[lower])


#: A solve's step: ``(unnorm, e^shift) -> (c, G)``, the expectations
#: whose first rows are the fitted moments and the Gram matrix, for the
#: density ``unnorm * e^shift`` on the grid.
MomentsAndGram = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]


@functools.lru_cache(maxsize=16)
def chebyshev_moments_and_gram(grid_size: int, degree: int) -> MomentsAndGram:
    """The Chebyshev basis's step on the canonical grid: the ``degree +
    1`` expectations are one product with the weighted table scaled by
    ``e^shift`` afterwards, and the Gram matrix is
    :func:`chebyshev_hessian` of them."""
    table = weighted_chebyshev_table(grid_size, degree)

    def moments_and_gram(
        unnorm: np.ndarray, scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        expectations = table @ unnorm
        expectations *= scale
        return expectations, chebyshev_hessian(expectations)

    return moments_and_gram


def power_to_chebyshev_moments(power_moments: np.ndarray) -> np.ndarray:
    """Convert power moments ``E[x^i]`` to Chebyshev moments ``E[T_j(x)]``.

    *power_moments* holds ``E[x^i]`` for ``i = 0..k`` of a variable
    supported on ``[-1, 1]``.  Because ``T_j`` is a polynomial of degree
    ``j``, its expectation is a fixed linear combination of the power
    moments.
    """
    power_moments = np.asarray(power_moments, dtype=np.float64)
    rows = _chebyshev_power_rows(power_moments.size - 1)
    # np.dot runs the same dot kernel as ``@`` on vectors, without the
    # ufunc dispatch.
    dot = np.dot
    return np.array([dot(row, power_moments[: row.size]) for row in rows])


@dataclass(frozen=True)
class MaxEntSolution:
    """Fitted maximum-entropy density on the canonical interval [-1, 1]."""

    theta: np.ndarray
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    iterations: int
    gradient_norm: float

    def quantile(self, q: float) -> float:
        """Value on [-1, 1] whose CDF equals *q* (linear interpolation)."""
        return float(np.interp(q, self.cdf, self.grid))

    def cdf_at(self, x: float) -> float:
        """CDF evaluated at *x* on [-1, 1]."""
        return float(np.interp(x, self.grid, self.cdf))


class MaxEntropySolver:
    """Newton solver for the maximum-entropy moment problem.

    Parameters
    ----------
    grid_size:
        Number of quadrature points on [-1, 1].  Larger grids increase
        accuracy and query cost (the trade-off Sec 4.5.5 mentions).
    """

    def __init__(self, grid_size: int = DEFAULT_GRID_SIZE) -> None:
        self.grid_size = int(grid_size)

    def solve(self, chebyshev_moments: np.ndarray) -> MaxEntSolution:
        """Fit a density matching *chebyshev_moments* on [-1, 1].

        ``chebyshev_moments[j]`` must equal ``E[T_j(x)]`` with
        ``chebyshev_moments[0] == 1``.  Raises :class:`SolverError` if
        Newton's method fails to reduce the moment mismatch.
        """
        m = np.asarray(chebyshev_moments, dtype=np.float64)
        k = m.size - 1
        # Rows 0..k are the basis; the weighted rows up to 2k turn each
        # step's one matvec into the whole Gram matrix.
        grid, basis_2k = chebyshev_grid(self.grid_size, 2 * k)
        starts = [uniform_start(k + 1)]
        if k >= 1:
            order_one = order_one_start(float(m[1]), k + 1)
            if order_one is not None:
                starts.append(order_one)
        return self._newton(
            grid, basis_2k[: k + 1], m,
            chebyshev_moments_and_gram(self.grid_size, 2 * k),
            starts,
        )

    def solve_system(
        self,
        grid: np.ndarray,
        basis: np.ndarray,
        moments: np.ndarray,
    ) -> MaxEntSolution:
        """Fit ``p(x) = exp(theta . basis(x))`` on *grid* matching
        ``E[basis_j] == moments[j]``.

        *grid* must be an increasing array on [-1, 1]; *basis* has one
        row per feature evaluated on the grid (row 0 should be the
        constant 1 with ``moments[0] == 1``).  This generalised entry
        point is what the joint standard-plus-log-moment fit of the
        full Moments Sketch design (Sec 3.2) uses.  A general basis has
        no product identity, so each step forms its Gram matrix by
        matmul, and its rows need not start with ``1, x``, so Newton
        starts from the uniform density alone.
        """
        m = np.asarray(moments, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        basis = np.asarray(basis, dtype=np.float64)
        if basis.shape != (m.size, grid.size):
            raise SolverError(
                f"basis shape {basis.shape} does not match "
                f"{m.size} moments on a {grid.size}-point grid"
            )
        weights = grid_weights(grid)

        def moments_and_gram(
            unnorm: np.ndarray, scale: float
        ) -> tuple[np.ndarray, np.ndarray]:
            pdf_weights = unnorm * scale * weights
            return basis @ pdf_weights, (basis * pdf_weights) @ basis.T

        return self._newton(
            grid, basis, m, moments_and_gram, [uniform_start(m.size)]
        )

    def _newton(
        self,
        grid: np.ndarray,
        basis: np.ndarray,
        m: np.ndarray,
        moments_and_gram: MomentsAndGram,
        starts: Sequence[np.ndarray],
    ) -> MaxEntSolution:
        """Newton's method on the dual, shared by both entry points.

        It begins at the point of *starts* with the lowest dual value
        (the first on ties or a non-finite value).  Each step asks
        ``moments_and_gram(exp(theta . basis - shift), e^shift)`` for
        the expectations ``c`` — ``c[:k]`` are the fitted moments — and
        the Gram matrix.  A point is evaluated (``theta . basis``, one
        ``exp`` over the grid and its dual value) once, when it is
        offered as a start or proposed by the line search; the accepted
        candidate carries that evaluation into the next step.  An
        overflowing candidate evaluates to inf and the line search
        rejects it, so the whole solve ignores overflow.
        """
        k = m.size
        weights = grid_weights(grid)
        with np.errstate(over="ignore"):
            theta = starts[0]
            scale, unnorm = _evaluate(theta, basis)
            current = _dual_value(theta, scale, unnorm, weights, m)
            for start in starts[1:]:
                start_scale, start_unnorm = _evaluate(start, basis)
                value = _dual_value(
                    start, start_scale, start_unnorm, weights, m
                )
                if value < current:
                    theta, scale, unnorm, current = (
                        start, start_scale, start_unnorm, value
                    )

            # Discrete or near-degenerate inputs admit no smooth density
            # with exactly these moments, so the iteration may stall with
            # a residual mismatch; like the reference msketch solver we
            # then use the best density found, and only fail on garbage.
            best_theta, best_unnorm = theta, unnorm
            best_grad_norm = np.inf
            iterations = 0
            for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
                expectations, hessian = moments_and_gram(unnorm, scale)
                grad = expectations[:k] - m
                grad_norm = float(np.maximum.reduce(np.abs(grad)))
                if grad_norm < best_grad_norm:
                    best_grad_norm = grad_norm
                    best_theta, best_unnorm = theta, unnorm
                if grad_norm < DEFAULT_TOLERANCE:
                    break
                step = self._newton_step(hessian, grad)
                # Backtracking line search on the convex dual: the first
                # finite candidate below the current value, within 40
                # halvings, or no progress is possible and the loop ends.
                length = 1.0
                candidate = theta - step  # length 1.0 scales exactly
                for _ in range(40):
                    candidate_scale, candidate_unnorm = _evaluate(
                        candidate, basis
                    )
                    value = _dual_value(
                        candidate, candidate_scale, candidate_unnorm,
                        weights, m,
                    )
                    if math.isfinite(value) and value < current:
                        break
                    length *= 0.5
                    candidate = theta - length * step
                else:
                    break
                theta, scale, unnorm, current = (
                    candidate, candidate_scale, candidate_unnorm, value
                )

        if not np.isfinite(best_grad_norm) or best_grad_norm > 0.5:
            raise SolverError(
                f"maximum-entropy solver diverged: |grad| = "
                f"{best_grad_norm:.3g} after {iterations} iterations"
            )

        # best_unnorm is exp(theta . basis - max) at best_theta.
        pdf = best_unnorm
        pdf_weights = pdf * weights
        cdf = np.cumsum(pdf_weights)
        cdf /= cdf[-1]
        cdf[0] = 0.0
        cdf[-1] = 1.0
        pdf_normalised = pdf / float(pdf_weights.sum())
        return MaxEntSolution(
            theta=best_theta,
            grid=grid,
            pdf=pdf_normalised,
            cdf=cdf,
            iterations=iterations,
            gradient_norm=best_grad_norm,
        )

    @staticmethod
    def _newton_step(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Solve ``H step = grad`` with Tikhonov damping.

        A small relative ridge keeps nearly-collinear bases (e.g. the
        joint standard+log fit on moderately-ranged data) from
        producing explosive steps; it grows if the solve still fails.
        """
        identity = _identity(hessian.shape[0])
        diagonal = np.abs(hessian.diagonal())
        scale = float(np.maximum.reduce(diagonal)) or 1.0
        ridge = 1e-10 * scale
        for _ in range(8):
            try:
                return np.linalg.solve(hessian + ridge * identity, grad)
            except np.linalg.LinAlgError:
                ridge *= 100.0
        return np.linalg.lstsq(hessian, grad, rcond=None)[0]


def uniform_start(size: int) -> np.ndarray:
    """``theta`` of the uniform density on [-1, 1] over *size* features."""
    theta = np.zeros(size)
    theta[0] = -np.log(2.0)
    return theta


def order_one_start(m1: float, size: int) -> np.ndarray | None:
    """``theta`` of the order-1 maximum-entropy density on [-1, 1].

    That density is ``exp(a + b x)`` with mean ``coth b - 1/b = m1``;
    ``b`` is rounded to a multiple of :data:`START_SLOPE_QUANTUM` and
    ``a`` normalises it exactly.  ``None`` — keep the uniform start —
    when *m1* is not a mean of a density on the open interval (NaN and
    infinities included), when the slope is not finite or when it
    rounds to 0.
    """
    if not abs(m1) < 1.0:  # also NaN
        return None
    slope = _inverse_langevin(m1)
    if not math.isfinite(slope):
        return None
    quanta = round(slope / START_SLOPE_QUANTUM)
    if quanta == 0:
        return None
    b = quanta * START_SLOPE_QUANTUM
    # log of integral(exp(b x), -1, 1) = log(2 sinh(b) / b), stable for
    # large |b|: |b| + log((1 - exp(-2|b|)) / |b|).
    magnitude = abs(b)
    a = -(magnitude + math.log(-math.expm1(-2.0 * magnitude) / magnitude))
    theta = np.zeros(size)
    theta[0] = a
    theta[1] = b
    return theta


def _inverse_langevin(m1: float) -> float:
    """``b`` with ``coth b - 1/b == m1`` for ``|m1| < 1``.

    Cohen's Pade approximation ``m1 (3 - m1^2) / (1 - m1^2)`` (within
    5 %) refined by Newton steps; NaN when a step cannot be taken.
    """
    b = m1 * (3.0 - m1 * m1) / (1.0 - m1 * m1)
    for _ in range(_SLOPE_NEWTON_STEPS):
        value, slope = _langevin(b)
        if not slope > 0.0:
            return math.nan
        b -= (value - m1) / slope
    return b


def _langevin(b: float) -> tuple[float, float]:
    """``L(b) = coth b - 1/b`` and ``L'(b) = 1/b^2 - 1/sinh(b)^2``."""
    x = abs(b)
    if x < 1e-2:  # the series; the closed form cancels near 0
        square = b * b
        return b * (1.0 / 3.0 - square / 45.0), 1.0 / 3.0 - square / 15.0
    decay = math.exp(-2.0 * x)
    denominator = -math.expm1(-2.0 * x)
    value = (1.0 + decay) / denominator - 1.0 / x
    csch_squared = 4.0 * decay / (denominator * denominator)
    return math.copysign(value, b), 1.0 / (x * x) - csch_squared


def _evaluate(theta: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """``(e^shift, exp(theta . basis - shift))`` with ``shift`` the max
    of ``theta . basis``: the one product and one ``exp`` a point costs,
    the ``exp`` taken in place."""
    log_pdf = theta @ basis
    shift = np.maximum.reduce(log_pdf)  # .max() without its wrapper
    log_pdf -= shift
    return np.exp(shift), np.exp(log_pdf, out=log_pdf)


def _dual_value(
    theta: np.ndarray,
    scale: float,
    unnorm: np.ndarray,
    weights: np.ndarray,
    m: np.ndarray,
) -> float:
    """Stabilised ``integral(exp(theta . T)) - theta . m``; inf when the
    integral overflows, which the caller's error state lets through."""
    # np.dot runs the dot kernel ``@`` runs, without ufunc dispatch.
    return float(np.dot(unnorm, weights)) * scale - float(np.dot(theta, m))
