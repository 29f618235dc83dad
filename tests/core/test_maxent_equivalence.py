"""The Newton solver against a verbatim copy of an earlier loop.

The solver forms each step's Gram matrix from ``2k + 1`` Chebyshev
expectations (``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2``) instead of a
basis matmul, and evaluates each point (``theta . basis``, one ``exp``
over the grid and its dual value) once.  Both change only rounding:
from the uniform start alone (:class:`UniformStartSolver`) it takes
the steps of :class:`ReferenceSolver`, the loop as it was, kept here
verbatim.  The solver also starts from the order-1 density when that
has the lower dual value, which moves the path on purpose: it takes
fewer steps to a fit of the same tolerance, so answers are compared at
answer level — the level ``test_batch_equivalence`` uses for Moments —
within 1e-5.  The reference's own converged answers move by up to
2.8e-6 when only its tolerance is tightened to 1e-12 (on the
well-posed cases that reach it), so a fit of tolerance 1e-9 pins an
answer no closer than that.

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
    order_one_start,
    power_to_chebyshev_moments,
    uniform_start,
)
from repro.core import dumps, loads
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


class UniformStartSolver(MaxEntropySolver):
    """The solver's loop from the uniform start alone."""

    def solve(self, chebyshev_moments: np.ndarray) -> MaxEntSolution:
        m = np.asarray(chebyshev_moments, dtype=np.float64)
        k = m.size - 1
        # Through the module, so the count witness can patch the table.
        grid, basis_2k = maxent.chebyshev_grid(self.grid_size, 2 * k)
        return self._newton(
            grid, basis_2k[: k + 1], m,
            maxent.chebyshev_moments_and_gram(self.grid_size, 2 * k),
            [uniform_start(k + 1)],
        )


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


#: Answers of converged well-posed fits agree within this (relative).
ANSWER_TOLERANCE = 1e-5


def compare(dist: str, n: int, transform: str, seed: int):
    """Check one case; return ``(steps, errors)``.

    Both loops must reach the same outcome (answers or SolverError).
    ``steps`` is ``(new, reference)`` Newton steps when both answered,
    else ``None``.  A fit that converges on a well-posed input answers
    within :data:`ANSWER_TOLERANCE`, and ``errors`` is ``None``.
    Otherwise — the 200-iteration cap, or a tiny sample — answers stay
    within [min, max] and ``errors`` is the ``(new, reference)`` mean
    error against the exact quantiles, which the caller holds over the
    whole set.
    """
    values = values_for(dist, n, transform, seed)
    new, new_fit = fit(MaxEntropySolver(), values, transform)
    old, old_fit = fit(ReferenceSolver(), values, transform)
    if isinstance(old, SolverError):
        assert isinstance(new, SolverError), "reference raised, new answered"
        return None, None
    assert not isinstance(new, SolverError), f"new raised: {new}"
    steps = new_fit.iterations, old_fit.iterations
    tolerance = DEFAULT_TOLERANCE
    if (
        n >= WELL_POSED_SIZE
        and new_fit.gradient_norm < tolerance
        and old_fit.gradient_norm < tolerance
    ):
        assert new == pytest.approx(old, rel=ANSWER_TOLERANCE, abs=1e-12)
        return steps, None
    assert all(values.min() <= a <= values.max() for a in new)
    return steps, (mean_error(new, values), mean_error(old, values))


def assert_no_worse(results) -> None:
    """Summed steps no more than the reference's; the mean error of the
    unconverged and ill-posed cases within 1e-5 relative of it."""
    steps = [s for s, _ in results if s is not None]
    new_steps, old_steps = np.sum(steps, axis=0)
    assert new_steps <= old_steps, (new_steps, old_steps)
    errors = [e for _, e in results if e is not None]
    new, old = np.mean(errors, axis=0)
    assert new <= old * (1 + ANSWER_TOLERANCE), (new, old)


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
    assert_no_worse([compare(*case) for case in FAST_CASES])


@pytest.mark.slow
def test_wide_grid_matches_the_reference_loop():
    """7 distributions x 5 sizes x 3 transforms x 3 seeds."""
    assert_no_worse([
        compare(dist, n, transform, seed)
        for dist in sorted(DISTRIBUTIONS)
        for n in SIZES
        for transform in TRANSFORMS
        for seed in SEEDS
    ])


BENCHMARK_SIZES = [5_000, 62_500, 400_000]
BENCHMARK_SEEDS = [20230328, 4242]


def benchmark_runs(n: int, seed: int, solvers):
    """``(steps, answers)`` of each solver on a Pareto(1, 1) / log fit."""
    values = 1.0 + np.random.default_rng(seed).pareto(1.0, n)
    runs = []
    for solver in solvers:
        sketch = paper_config("moments", dataset="pareto")
        sketch.update_batch(values)
        sketch._solver = solver
        runs.append((sketch._solve().iterations, sketch.quantiles(QS)))
    return runs


@pytest.mark.parametrize("n", BENCHMARK_SIZES)
@pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
def test_benchmark_shapes_take_the_same_steps(n, seed):
    """From the uniform start alone, the benchmark's fits — panes,
    merge parts and a large sketch — take exactly the reference's
    steps: the loop itself changes only rounding."""
    runs = benchmark_runs(n, seed, (UniformStartSolver(), ReferenceSolver()))
    (new_iters, new), (old_iters, old) = runs
    assert new_iters == old_iters
    assert new == pytest.approx(old, rel=1e-9)


@pytest.mark.parametrize("n", BENCHMARK_SIZES)
@pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
def test_benchmark_shapes_take_at_most_065x_the_reference_steps(n, seed):
    """The same fits from the order-1 start: the log of Pareto data is
    an exponential density on [-1, 1], so Newton starts near it."""
    runs = benchmark_runs(n, seed, (MaxEntropySolver(), ReferenceSolver()))
    (new_iters, new), (old_iters, old) = runs
    assert new_iters <= 0.65 * old_iters, (new_iters, old_iters)
    assert new == pytest.approx(old, rel=ANSWER_TOLERANCE)


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
# Garbage moments keep the uniform start
# ----------------------------------------------------------------------


def tampered(index: int, value: float) -> MomentsSketch:
    """A decoded Pareto/log sketch with one power sum replaced."""
    sketch = paper_config("moments", dataset="pareto")
    sketch.update_batch(
        1.0 + np.random.default_rng(20230328).pareto(1.0, 5_000)
    )
    sketch._power_sums[index] = value
    return loads(dumps(sketch))


def outcome(sketch: MomentsSketch, solver):
    sketch._solver = solver
    sketch._solution = None
    try:
        with np.errstate(invalid="ignore"):  # inf - inf in the moments
            return [a.hex() for a in sketch.quantiles(QS)]
    except SolverError:
        return SolverError


@pytest.mark.parametrize(
    "index, value",
    [
        (1, 1e6), (1, -1e6),  # |m1| > 1
        (1, np.nan), (1, np.inf), (5, np.nan), (12, -np.inf),
    ],
    ids=["m1-above-1", "m1-below-minus-1", "m1-nan", "m1-inf",
         "m5-nan", "m12-minus-inf"],
)
def test_garbage_moments_keep_todays_outcome(index, value):
    """No order-1 candidate is taken, so the answer (or SolverError)
    is bit for bit the uniform-start one, and the reference's outcome."""
    sketch = tampered(index, value)
    new = outcome(sketch, MaxEntropySolver())
    assert new == outcome(sketch, UniformStartSolver())
    reference = outcome(sketch, ReferenceSolver())
    assert (new is SolverError) == (reference is SolverError)


# ----------------------------------------------------------------------
# Count witness: one evaluation per start and line-search candidate
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


class Counts:
    def __init__(self, thetas, grid_exps, dual_values, iterations):
        self.thetas = thetas
        self.grid_exps = grid_exps
        self.dual_values = dual_values
        self.iterations = iterations


def counted_solve(solver, cheb: np.ndarray, monkeypatch) -> Counts:
    """Solve *cheb* on the default grid with ``theta . basis`` products,
    grid ``exp`` calls and the solver's dual values counted."""
    thetas: list[bytes] = []
    grid, basis = chebyshev_grid(DEFAULT_GRID_SIZE, 2 * (cheb.size - 1))
    counting = np.array(basis).view(CountingBasis)
    counting.thetas = thetas
    counting_np = CountingNumpy(DEFAULT_GRID_SIZE)
    dual_values = []
    dual_value = maxent._dual_value

    def counting_dual_value(theta, *args):
        dual_values.append(bytes(memoryview(theta)))
        return dual_value(theta, *args)

    with monkeypatch.context() as patch:
        # Both loops call np.exp through their own module's name.
        patch.setattr(maxent, "np", counting_np)
        patch.setitem(globals(), "np", counting_np)
        patch.setattr(
            maxent, "chebyshev_grid", lambda size, degree: (grid, counting)
        )
        patch.setattr(maxent, "_dual_value", counting_dual_value)
        if isinstance(solver, ReferenceSolver):
            solution = solver.solve_system(
                grid, counting[: cheb.size], cheb
            )
        else:
            solution = solver.solve(cheb)
    return Counts(
        thetas, counting_np.grid_exps, dual_values, solution.iterations
    )


@pytest.fixture
def pareto_cheb() -> np.ndarray:
    sketch = paper_config("moments", dataset="pareto")
    sketch.update_batch(
        1.0 + np.random.default_rng(20230328).pareto(1.0, 5_000)
    )
    return power_to_chebyshev_moments(sketch._scaled_power_moments())


def test_each_point_is_evaluated_once(pareto_cheb, monkeypatch):
    counts = counted_solve(MaxEntropySolver(), pareto_cheb, monkeypatch)
    thetas = counts.thetas
    # The two starts, then one per line-search candidate, each a new
    # theta, and nothing re-evaluated for the current point or the
    # answer: one product, one exp and one dual value per point.
    assert counts.iterations > 3
    assert len(set(thetas)) == len(thetas)
    assert counts.grid_exps == len(thetas)
    assert counts.dual_values == thetas
    order_one = order_one_start(float(pareto_cheb[1]), pareto_cheb.size)
    assert thetas[:2] == [
        bytes(memoryview(uniform_start(pareto_cheb.size))),
        bytes(memoryview(order_one)),
    ]
    # Every step but the last (which converges) tried >= 1 candidate.
    assert len(thetas) >= counts.iterations + 1


def test_the_order_one_start_costs_one_evaluation(pareto_cheb, monkeypatch):
    """From the uniform start alone the solver makes exactly one
    evaluation fewer per path: the order-1 candidate's."""
    uniform = counted_solve(UniformStartSolver(), pareto_cheb, monkeypatch)
    assert len(uniform.thetas) == len(set(uniform.thetas))
    assert uniform.grid_exps == len(uniform.thetas)
    assert uniform.dual_values == uniform.thetas
    both = counted_solve(MaxEntropySolver(), pareto_cheb, monkeypatch)
    assert both.thetas[0] == uniform.thetas[0]
    # The order-1 start wins here, and saves far more than it costs.
    assert both.iterations < uniform.iterations
    assert len(both.thetas) < len(uniform.thetas)


def test_the_witness_sees_the_old_recomputation(pareto_cheb, monkeypatch):
    """The same counters on the reference loop, against the uniform
    start it shares: two more evaluations per step (loop top and
    line-search baseline) plus the answer's."""
    new = counted_solve(UniformStartSolver(), pareto_cheb, monkeypatch)
    old = counted_solve(ReferenceSolver(), pareto_cheb, monkeypatch)
    assert old.iterations == new.iterations
    steps = new.iterations - 1  # the last step converges before searching
    assert len(old.thetas) == len(new.thetas) + 2 * steps + 1
    assert old.grid_exps == new.grid_exps + 2 * steps + 1
    assert len(set(old.thetas)) < len(old.thetas)
    # The old loop computes its dual values in its own method.
    assert old.dual_values == []
