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
grid, exactly as the reference msketch solver does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
        grid, basis = chebyshev_grid(self.grid_size, m.size - 1)
        return self.solve_system(grid, basis, m)

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
        full Moments Sketch design (Sec 3.2) uses.
        """
        m = np.asarray(moments, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        basis = np.asarray(basis, dtype=np.float64)
        if basis.shape != (m.size, grid.size):
            raise SolverError(
                f"basis shape {basis.shape} does not match "
                f"{m.size} moments on a {grid.size}-point grid"
            )
        k = m.size
        dx = grid[1] - grid[0]
        # Trapezoid quadrature weights.
        weights = np.full(grid.size, dx)
        weights[0] *= 0.5
        weights[-1] *= 0.5

        theta = np.zeros(k)
        theta[0] = -np.log(2.0)  # start from the uniform density on [-1, 1]

        # Discrete or near-degenerate inputs admit no smooth density with
        # exactly these moments, so the iteration may stall with a
        # residual mismatch; like the reference msketch solver we then
        # use the best density found, and only fail on garbage.
        best_theta = theta
        best_grad_norm = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            log_pdf = theta @ basis
            shift = log_pdf.max()
            pdf_unnorm = np.exp(log_pdf - shift)
            scale = np.exp(shift)
            pdf = pdf_unnorm * scale
            moments = basis @ (pdf * weights)
            grad = moments - m
            grad_norm = float(np.abs(grad).max())
            if grad_norm < best_grad_norm:
                best_grad_norm = grad_norm
                best_theta = theta
            if grad_norm < self.tolerance:
                break
            hessian = (basis * (pdf * weights)) @ basis.T
            step = self._newton_step(hessian, grad)
            new_theta = self._line_search(theta, step, basis, weights, m)
            if new_theta is theta:
                break  # line search cannot improve any further
            theta = new_theta

        theta = best_theta
        if not np.isfinite(best_grad_norm) or best_grad_norm > 0.5:
            raise SolverError(
                f"maximum-entropy solver diverged: |grad| = "
                f"{best_grad_norm:.3g} after {iterations} iterations"
            )

        log_pdf = theta @ basis
        pdf = np.exp(log_pdf - log_pdf.max())
        cdf = np.cumsum(pdf * weights)
        cdf /= cdf[-1]
        cdf[0] = 0.0
        cdf[-1] = 1.0
        pdf_normalised = pdf / float((pdf * weights).sum())
        return MaxEntSolution(
            theta=theta,
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
        identity = np.eye(hessian.shape[0])
        scale = float(np.abs(np.diag(hessian)).max()) or 1.0
        ridge = 1e-10 * scale
        for _ in range(8):
            try:
                return np.linalg.solve(hessian + ridge * identity, grad)
            except np.linalg.LinAlgError:
                ridge *= 100.0
        return np.linalg.lstsq(hessian, grad, rcond=None)[0]

    @staticmethod
    def _dual_objective(
        theta: np.ndarray,
        basis: np.ndarray,
        weights: np.ndarray,
        m: np.ndarray,
    ) -> float:
        log_pdf = theta @ basis
        shift = log_pdf.max()
        # Stabilised evaluation of integral(exp(theta . T)) - theta . m;
        # an overflowing candidate evaluates to inf and is rejected by
        # the line search, so the overflow itself is benign.
        with np.errstate(over="ignore"):
            integral = (
                float(np.exp(log_pdf - shift) @ weights) * np.exp(shift)
            )
        return integral - float(theta @ m)

    def _line_search(
        self,
        theta: np.ndarray,
        step: np.ndarray,
        basis: np.ndarray,
        weights: np.ndarray,
        m: np.ndarray,
    ) -> np.ndarray:
        """Backtracking line search on the convex dual objective."""
        current = self._dual_objective(theta, basis, weights, m)
        scale = 1.0
        for _ in range(40):
            candidate = theta - scale * step
            value = self._dual_objective(candidate, basis, weights, m)
            if np.isfinite(value) and value < current:
                return candidate
            scale *= 0.5
        return theta  # no progress possible; caller's loop will stop
