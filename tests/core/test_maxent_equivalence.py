"""The Newton solver against a verbatim copy of its previous loop.

The solver forms each step's Gram matrix from ``2k + 1`` Chebyshev
expectations (``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2``) instead of a
basis matmul, and evaluates each point (``theta . basis`` and one
``exp`` over the grid) once.  Both change only rounding, so answers
are compared at answer level — the level ``test_batch_equivalence``
uses for Moments — against :class:`ReferenceSolver`, the loop as it
was, kept here verbatim.

The wide distribution x size x transform grid is marked ``slow`` (the
cases that hit the iteration cap cost ~20 ms each); tier-1 keeps a
fast subset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import maxent
from repro.core.maxent import (
    DEFAULT_GRID_SIZE,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    MaxEntropySolver,
    MaxEntSolution,
    chebyshev_grid,
    power_to_chebyshev_moments,
)
from repro.core.moments import MomentsSketch
from repro.core.registry import paper_config
from repro.errors import SolverError

QS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


class ReferenceSolver:
    """The Newton loop before the Chebyshev Gram identity, verbatim."""

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
        m = np.asarray(chebyshev_moments, dtype=np.float64)
        grid, basis = chebyshev_grid(self.grid_size, m.size - 1)
        return self.solve_system(grid, basis, m)

    def solve_system(
        self,
        grid: np.ndarray,
        basis: np.ndarray,
        moments: np.ndarray,
    ) -> MaxEntSolution:
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
        weights = np.full(grid.size, dx)
        weights[0] *= 0.5
        weights[-1] *= 0.5

        theta = np.zeros(k)
        theta[0] = -np.log(2.0)

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
                break
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
        current = self._dual_objective(theta, basis, weights, m)
        scale = 1.0
        for _ in range(40):
            candidate = theta - scale * step
            value = self._dual_objective(candidate, basis, weights, m)
            if np.isfinite(value) and value < current:
                return candidate
            scale *= 0.5
        return theta


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

DISTRIBUTIONS = {
    "pareto": lambda rng, n: 1.0 + rng.pareto(1.0, n),
    "uniform": lambda rng, n: rng.uniform(50.0, 60.0, n),
    "normal": lambda rng, n: rng.normal(0.0, 10.0, n),
    "binomial": lambda rng, n: rng.binomial(50, 0.3, n).astype(float),
    "zipf": lambda rng, n: rng.zipf(1.5, n).astype(float),
    "lognormal": lambda rng, n: rng.lognormal(1.0, 1.0, n),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
}
SIZES = (20, 50, 500, 5_000, 50_000)
TRANSFORMS = ("none", "log", "arcsinh")
SEEDS = (20230328, 4242, 7)


def values_for(dist: str, n: int, transform: str, seed: int) -> np.ndarray:
    values = DISTRIBUTIONS[dist](np.random.default_rng(seed), n)
    if transform == "log" and values.min() <= 0.0:
        values = values - values.min() + 1.0  # the log needs x > 0
    return values


#: Below this many values the moment problem is ill-posed (discrete or
#: near-degenerate samples): the dual is flat along some direction, so
#: rounding moves the answer far more than on a well-posed fit.
WELL_POSED_SIZE = 500


def fit(solver, values: np.ndarray, transform: str):
    """``(answers, solution)``, or ``(SolverError, None)``."""
    sketch = MomentsSketch(transform=transform)
    sketch.update_batch(values)
    sketch._solver = solver
    try:
        solution = sketch._solve()
    except SolverError as exc:
        return exc, None
    return sketch.quantiles(QS), solution


def mean_error(answers: list[float], values: np.ndarray) -> float:
    exact = np.quantile(values, QS, method="inverted_cdf")
    scale = np.maximum(np.abs(exact), 1e-12)
    return float(np.mean(np.abs(np.asarray(answers) - exact) / scale))


def compare(dist: str, n: int, transform: str, seed: int):
    """Check one case; return ``(new, reference)`` mean errors when it
    is not a well-posed converged fit, else ``None``.

    Both loops must reach the same outcome (answers or SolverError).
    A fit that converges on a well-posed input answers within 1e-9 in
    iterations +-1.  Otherwise — the 200-iteration cap, or a tiny
    sample — answers stay within [min, max] and the caller holds the
    mean error against the exact quantiles over the whole set.
    """
    values = values_for(dist, n, transform, seed)
    new, new_fit = fit(MaxEntropySolver(), values, transform)
    old, old_fit = fit(ReferenceSolver(), values, transform)
    if isinstance(old, SolverError):
        assert isinstance(new, SolverError), "reference raised, new answered"
        return None
    assert not isinstance(new, SolverError), f"new raised: {new}"
    tolerance = DEFAULT_TOLERANCE
    if (
        n >= WELL_POSED_SIZE
        and new_fit.gradient_norm < tolerance
        and old_fit.gradient_norm < tolerance
    ):
        assert new == pytest.approx(old, rel=1e-9, abs=1e-12)
        assert abs(new_fit.iterations - old_fit.iterations) <= 1
        return None
    assert all(values.min() <= a <= values.max() for a in new)
    return mean_error(new, values), mean_error(old, values)


def assert_error_no_worse(errors: list[tuple[float, float]]) -> None:
    new, old = np.mean(errors, axis=0)
    assert new <= old * (1 + 1e-6), (new, old)


FAST_CASES = [
    ("pareto", 5_000, "log", 20230328),
    ("uniform", 500, "none", 20230328),
    ("normal", 5_000, "arcsinh", 4242),
    ("binomial", 50_000, "none", 7),
    ("lognormal", 20, "log", 20230328),
    ("exponential", 50, "none", 4242),
    ("pareto", 50, "none", 20230328),
    ("zipf", 50, "none", 7),
]


def test_answers_match_the_reference_loop():
    errors = [compare(*case) for case in FAST_CASES]
    assert_error_no_worse([e for e in errors if e is not None])


@pytest.mark.slow
def test_wide_grid_matches_the_reference_loop():
    """7 distributions x 5 sizes x 3 transforms x 3 seeds."""
    errors = [
        compare(dist, n, transform, seed)
        for dist in sorted(DISTRIBUTIONS)
        for n in SIZES
        for transform in TRANSFORMS
        for seed in SEEDS
    ]
    assert_error_no_worse([e for e in errors if e is not None])


@pytest.mark.parametrize("n", [5_000, 62_500, 400_000])
@pytest.mark.parametrize("seed", [20230328, 4242])
def test_benchmark_shapes_take_the_same_steps(n, seed):
    """The Pareto(1, 1) / log fits the benchmark runs: panes, merge
    parts and a large sketch take exactly the reference's steps."""
    values = 1.0 + np.random.default_rng(seed).pareto(1.0, n)
    runs = []
    for solver in (MaxEntropySolver(), ReferenceSolver()):
        sketch = paper_config("moments", dataset="pareto")
        sketch.update_batch(values)
        sketch._solver = solver
        runs.append((sketch._solve().iterations, sketch.quantiles(QS)))
    (new_iters, new), (old_iters, old) = runs
    assert new_iters == old_iters
    assert new == pytest.approx(old, rel=1e-9)


def test_joint_fit_matches_the_reference_loop():
    """The joint basis keeps the Gram matmul: the same float program."""
    values = 1.0 + np.random.default_rng(3).pareto(1.0, 5_000)
    answers = []
    for solver in (MaxEntropySolver(), ReferenceSolver()):
        sketch = MomentsSketch(log_moments=True)
        sketch.update_batch(values)
        sketch._solver = solver
        answers.append([a.hex() for a in sketch.quantiles(QS)])
    assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# Count witness: one evaluation per line-search candidate
# ----------------------------------------------------------------------


class CountingBasis(np.ndarray):
    """Records the ``theta`` of every ``theta @ basis`` product."""

    thetas: list[bytes]

    def __array_finalize__(self, obj):
        # Row slices and transposes share their parent's record.
        self.thetas = getattr(obj, "thetas", [])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (
            ufunc is np.matmul and method == "__call__"
            and isinstance(inputs[1], CountingBasis)
            and np.ndim(inputs[0]) == 1
        ):
            self.thetas.append(bytes(memoryview(inputs[0])))
        plain = [
            x.view(np.ndarray) if isinstance(x, CountingBasis) else x
            for x in inputs
        ]
        return getattr(ufunc, method)(*plain, **kwargs)


_numpy = np  # the real module, while "np" is patched below


class CountingNumpy:
    """``numpy`` with ``exp`` over a *grid_size*-point array counted."""

    def __init__(self, grid_size: int) -> None:
        self.grid_size = grid_size
        self.grid_exps = 0

    def exp(self, x, *args, **kwargs):
        if _numpy.size(x) == self.grid_size:
            self.grid_exps += 1
        return _numpy.exp(x, *args, **kwargs)

    def asarray(self, x, *args, **kwargs):
        # solve_system's float64 coercion must keep the counting basis.
        if isinstance(x, CountingBasis):
            return x
        return _numpy.asarray(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(_numpy, name)


def counted_solve(solver, cheb: np.ndarray, monkeypatch):
    """Solve *cheb* on the default grid with products and exps counted;
    returns ``(thetas, grid_exps, iterations)``."""
    thetas: list[bytes] = []
    grid, basis = chebyshev_grid(DEFAULT_GRID_SIZE, 2 * (cheb.size - 1))
    counting = np.array(basis).view(CountingBasis)
    counting.thetas = thetas
    counting_np = CountingNumpy(DEFAULT_GRID_SIZE)
    with monkeypatch.context() as patch:
        # Both loops call np.exp through their own module's name.
        patch.setattr(maxent, "np", counting_np)
        patch.setitem(globals(), "np", counting_np)
        patch.setattr(
            maxent, "chebyshev_grid", lambda size, degree: (grid, counting)
        )
        if isinstance(solver, ReferenceSolver):
            solution = solver.solve_system(
                grid, counting[: cheb.size], cheb
            )
        else:
            solution = solver.solve(cheb)
    return thetas, counting_np.grid_exps, solution.iterations


@pytest.fixture
def pareto_cheb() -> np.ndarray:
    sketch = paper_config("moments", dataset="pareto")
    sketch.update_batch(
        1.0 + np.random.default_rng(20230328).pareto(1.0, 5_000)
    )
    return power_to_chebyshev_moments(sketch._scaled_power_moments())


def test_each_point_is_evaluated_once(pareto_cheb, monkeypatch):
    thetas, exps, iterations = counted_solve(
        MaxEntropySolver(), pareto_cheb, monkeypatch
    )
    # The start plus one per line-search candidate, each a new theta,
    # and nothing re-evaluated for the current point or the answer.
    assert iterations > 5
    assert len(set(thetas)) == len(thetas)
    assert exps == len(thetas)
    # Every step but the last (which converges) tried >= 1 candidate.
    assert len(thetas) >= iterations


def test_the_witness_sees_the_old_recomputation(pareto_cheb, monkeypatch):
    """The same counters on the reference loop: two more evaluations
    per step (loop top and line-search baseline) plus the answer's."""
    new, new_exps, iterations = counted_solve(
        MaxEntropySolver(), pareto_cheb, monkeypatch
    )
    old, old_exps, old_iterations = counted_solve(
        ReferenceSolver(), pareto_cheb, monkeypatch
    )
    assert old_iterations == iterations
    steps = iterations - 1  # the last step converges before searching
    assert len(old) == len(new) + 2 * steps + 1
    assert old_exps == new_exps + 2 * steps + 1
    assert len(set(old)) < len(old)
