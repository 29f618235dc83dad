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
``T_0 .. T_2k`` yields the gradient and the whole Hessian of a step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SolverError

#: Default quadrature grid resolution (msketch uses 1024).
DEFAULT_GRID_SIZE = 1024

DEFAULT_MAX_ITERATIONS = 200
DEFAULT_TOLERANCE = 1e-9


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


def power_to_chebyshev_moments(power_moments: np.ndarray) -> np.ndarray:
    """Convert power moments ``E[x^i]`` to Chebyshev moments ``E[T_j(x)]``.

    *power_moments* holds ``E[x^i]`` for ``i = 0..k`` of a variable
    supported on ``[-1, 1]``.  Because ``T_j`` is a polynomial of degree
    ``j``, its expectation is a fixed linear combination of the power
    moments.
    """
    power_moments = np.asarray(power_moments, dtype=np.float64)
    rows = _chebyshev_power_rows(power_moments.size - 1)
    return np.array([float(row @ power_moments[: row.size]) for row in rows])


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
    max_iterations, tolerance:
        Newton iteration budget and gradient-norm convergence threshold.
    """

    def __init__(
        self,
        grid_size: int = DEFAULT_GRID_SIZE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.grid_size = int(grid_size)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def solve(self, chebyshev_moments: np.ndarray) -> MaxEntSolution:
        """Fit a density matching *chebyshev_moments* on [-1, 1].

        ``chebyshev_moments[j]`` must equal ``E[T_j(x)]`` with
        ``chebyshev_moments[0] == 1``.  Raises :class:`SolverError` if
        Newton's method fails to reduce the moment mismatch.
        """
        m = np.asarray(chebyshev_moments, dtype=np.float64)
        k = m.size - 1
        # Rows 0..k are the basis; rows up to 2k turn each step's one
        # matvec into the whole Gram matrix (chebyshev_hessian).
        grid, basis_2k = chebyshev_grid(self.grid_size, 2 * k)
        return self._newton(
            grid, basis_2k[: k + 1], m, basis_2k,
            lambda expectations, _: chebyshev_hessian(expectations),
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
        matmul.
        """
        m = np.asarray(moments, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        basis = np.asarray(basis, dtype=np.float64)
        if basis.shape != (m.size, grid.size):
            raise SolverError(
                f"basis shape {basis.shape} does not match "
                f"{m.size} moments on a {grid.size}-point grid"
            )
        return self._newton(
            grid, basis, m, basis,
            lambda _, pdf_weights: (basis * pdf_weights) @ basis.T,
        )

    def _newton(
        self,
        grid: np.ndarray,
        basis: np.ndarray,
        m: np.ndarray,
        moment_rows: np.ndarray,
        hessian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> MaxEntSolution:
        """Newton's method on the dual, shared by both entry points.

        Each step takes ``c = moment_rows @ (p * w)`` — ``moment_rows``
        starts with the rows of *basis*, so ``c[:k]`` are the fitted
        moments — and asks ``hessian(c, p * w)`` for the Gram matrix.
        A point is evaluated (``theta . basis`` and one ``exp`` over the
        grid) once, when the line search proposes it; the accepted
        candidate carries that evaluation into the next step.
        """
        k = m.size
        dx = grid[1] - grid[0]
        # Trapezoid quadrature weights.
        weights = np.full(grid.size, dx)
        weights[0] *= 0.5
        weights[-1] *= 0.5

        theta = np.zeros(k)
        theta[0] = -np.log(2.0)  # start from the uniform density on [-1, 1]
        shift, unnorm = _evaluate(theta, basis)

        # Discrete or near-degenerate inputs admit no smooth density with
        # exactly these moments, so the iteration may stall with a
        # residual mismatch; like the reference msketch solver we then
        # use the best density found, and only fail on garbage.
        best_theta, best_unnorm = theta, unnorm
        best_grad_norm = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            scale = np.exp(shift)
            pdf_weights = unnorm * scale * weights
            expectations = moment_rows @ pdf_weights
            grad = expectations[:k] - m
            grad_norm = float(np.abs(grad).max())
            if grad_norm < best_grad_norm:
                best_grad_norm = grad_norm
                best_theta, best_unnorm = theta, unnorm
            if grad_norm < self.tolerance:
                break
            step = self._newton_step(hessian(expectations, pdf_weights), grad)
            current = _dual_value(theta, shift, unnorm, weights, m)
            accepted = self._line_search(
                theta, step, basis, weights, m, current
            )
            if accepted is None:
                break  # line search cannot improve any further
            theta, shift, unnorm = accepted

        if not np.isfinite(best_grad_norm) or best_grad_norm > 0.5:
            raise SolverError(
                f"maximum-entropy solver diverged: |grad| = "
                f"{best_grad_norm:.3g} after {iterations} iterations"
            )

        # best_unnorm is exp(theta . basis - max) at best_theta.
        pdf = best_unnorm
        cdf = np.cumsum(pdf * weights)
        cdf /= cdf[-1]
        cdf[0] = 0.0
        cdf[-1] = 1.0
        pdf_normalised = pdf / float((pdf * weights).sum())
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
        scale = float(np.abs(np.diag(hessian)).max()) or 1.0
        ridge = 1e-10 * scale
        for _ in range(8):
            try:
                return np.linalg.solve(hessian + ridge * identity, grad)
            except np.linalg.LinAlgError:
                ridge *= 100.0
        return np.linalg.lstsq(hessian, grad, rcond=None)[0]

    @staticmethod
    def _line_search(
        theta: np.ndarray,
        step: np.ndarray,
        basis: np.ndarray,
        weights: np.ndarray,
        m: np.ndarray,
        current: float,
    ) -> tuple[np.ndarray, float, np.ndarray] | None:
        """Backtracking line search on the convex dual objective.

        Returns the first candidate below *current* with its evaluation
        ``(theta, shift, unnorm)``, or ``None`` when 40 halvings find
        none.
        """
        scale = 1.0
        for _ in range(40):
            candidate = theta - scale * step
            shift, unnorm = _evaluate(candidate, basis)
            value = _dual_value(candidate, shift, unnorm, weights, m)
            if np.isfinite(value) and value < current:
                return candidate, shift, unnorm
            scale *= 0.5
        return None  # no progress possible; caller's loop will stop


def _evaluate(theta: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """``(shift, exp(theta . basis - shift))`` with ``shift`` the max of
    ``theta . basis``: the one product and one ``exp`` a point costs."""
    log_pdf = theta @ basis
    shift = log_pdf.max()
    return shift, np.exp(log_pdf - shift)


def _dual_value(
    theta: np.ndarray,
    shift: float,
    unnorm: np.ndarray,
    weights: np.ndarray,
    m: np.ndarray,
) -> float:
    # Stabilised evaluation of integral(exp(theta . T)) - theta . m;
    # an overflowing candidate evaluates to inf and is rejected by
    # the line search, so the overflow itself is benign.
    with np.errstate(over="ignore"):
        integral = float(unnorm @ weights) * np.exp(shift)
    return integral - float(theta @ m)
