"""Synthetic value distributions used throughout the paper's evaluation.

Two kinds of generators live here:

* plain distributions (Pareto, uniform, binomial, Zipf, ...) used by the
  speed experiments (Sec 4.1: insertion/query use Pareto(1, 1); merge
  uses U(30, 100), binomial(n=100, p=0.2) and Zipf(20, 0.6)); and
* *drifting* variants that re-sample their parameters from normal
  distributions every few events, which the paper does each millisecond
  to make synthetic streams resemble real-world data (Sec 4.1).

Every generator exposes ``sample(n, rng)`` returning a float64 array, a
stable ``name``, and works with an externally-supplied
``numpy.random.Generator`` so experiments are reproducible end to end.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import InvalidValueError

#: The paper updates drifting parameters every millisecond at 50,000
#: events/second — i.e. every 50 events.
REDRAW_EVERY = 50

#: ``N(mean, std)`` that DriftingPareto re-draws its shape and scale from.
PARETO_DRIFT = (1.0, 0.05)

#: ``N(mean, std)`` that DriftingUniform re-draws its minimum from, and
#: the fixed width of its window.
UNIFORM_MIN_DRIFT = (1000.0, 100.0)
UNIFORM_WIDTH = 1000.0


class Distribution(abc.ABC):
    """A named source of float64 samples."""

    name: str = "distribution"

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* samples using *rng*."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Pareto(Distribution):
    """Pareto distribution with shape ``alpha`` and scale ``x_m``.

    Samples are ``x_m * (1 + Pareto(alpha))`` so the support starts at
    ``x_m``; the paper's speed experiments use ``alpha = 1, x_m = 1``.
    """

    def __init__(self, shape: float = 1.0, scale: float = 1.0) -> None:
        if shape <= 0 or scale <= 0:
            raise InvalidValueError(
                f"Pareto needs positive shape/scale, got {shape!r}/{scale!r}"
            )
        self.shape = float(shape)
        self.scale = float(scale)
        self.name = f"pareto(a={shape:g},xm={scale:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.scale * (1.0 + rng.pareto(self.shape, n))


class Uniform(Distribution):
    """Continuous uniform distribution on ``[low, high)``."""

    def __init__(self, low: float, high: float) -> None:
        if not high > low:
            raise InvalidValueError(
                f"Uniform needs high > low, got [{low!r}, {high!r})"
            )
        self.low = float(low)
        self.high = float(high)
        self.name = f"uniform({low:g},{high:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, n)


class Binomial(Distribution):
    """Discrete binomial distribution (as floats)."""

    def __init__(self, n: int, p: float) -> None:
        if n < 1 or not 0.0 < p < 1.0:
            raise InvalidValueError(
                f"Binomial needs n >= 1 and 0 < p < 1, got {n!r}/{p!r}"
            )
        self.n = int(n)
        self.p = float(p)
        self.name = f"binomial(n={n},p={p:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.binomial(self.n, self.p, n).astype(np.float64)


class Zipf(Distribution):
    """Zipf distribution over ``{1..num_elements}`` with ``P(k) ~ k^-s``.

    The merge-speed workload uses 20 elements with exponent 0.6; note
    this is the bounded-support variant (numpy's ``zipf`` requires
    ``s > 1`` and unbounded support, so it cannot express it).
    """

    def __init__(self, num_elements: int = 20, exponent: float = 0.6) -> None:
        if num_elements < 1 or exponent < 0:
            raise InvalidValueError(
                f"Zipf needs num_elements >= 1 and exponent >= 0, "
                f"got {num_elements!r}/{exponent!r}"
            )
        self.num_elements = int(num_elements)
        self.exponent = float(exponent)
        ranks = np.arange(1, self.num_elements + 1, dtype=np.float64)
        weights = ranks ** -self.exponent
        self._probabilities = weights / weights.sum()
        self._support = ranks
        self.name = f"zipf(n={num_elements},s={exponent:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self._support, size=n, p=self._probabilities)


class Exponential(Distribution):
    """Exponential distribution with the given mean."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise InvalidValueError(f"mean must be positive, got {mean!r}")
        self.mean = float(mean)
        self.name = f"exponential(mean={mean:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(self.mean, n)


class Gamma(Distribution):
    """Gamma distribution; excess kurtosis is ``6 / shape``."""

    def __init__(self, shape: float, scale: float = 1.0) -> None:
        if shape <= 0 or scale <= 0:
            raise InvalidValueError(
                f"Gamma needs positive shape/scale, got {shape!r}/{scale!r}"
            )
        self.shape = float(shape)
        self.scale = float(scale)
        self.name = f"gamma(k={shape:g},theta={scale:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, n)


class Normal(Distribution):
    """Normal distribution (excess kurtosis 0)."""

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std <= 0:
            raise InvalidValueError(f"std must be positive, got {std!r}")
        self.mean = float(mean)
        self.std = float(std)
        self.name = f"normal({mean:g},{std:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.std, n)


class Lognormal(Distribution):
    """Lognormal distribution (heavy right tail)."""

    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        if sigma <= 0:
            raise InvalidValueError(f"sigma must be positive, got {sigma!r}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.name = f"lognormal({mu:g},{sigma:g})"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, n)


class DriftingPareto(Distribution):
    """Pareto whose shape and scale drift, per the paper's Sec 4.1.

    Both the shape ``alpha`` and the scale ``X_m`` are re-drawn from
    :data:`PARETO_DRIFT` every :data:`REDRAW_EVERY` events (one millisecond
    of stream at the paper's 50k events/s rate).
    """

    name = "pareto"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        blocks = -(-n // REDRAW_EVERY)  # ceil division
        # Parameters must stay positive; drifted draws are clipped away
        # from zero so a 20-sigma outlier cannot crash the generator.
        shapes = np.clip(rng.normal(*PARETO_DRIFT, blocks), 0.05, None)
        scales = np.clip(rng.normal(*PARETO_DRIFT, blocks), 0.05, None)
        per_block_shape = np.repeat(shapes, REDRAW_EVERY)[:n]
        per_block_scale = np.repeat(scales, REDRAW_EVERY)[:n]
        # Inverse-CDF sampling vectorises across the drifting parameters.
        u = rng.random(n)
        return per_block_scale * (1.0 - u) ** (-1.0 / per_block_shape)


class DriftingUniform(Distribution):
    """Uniform whose minimum drifts as ``N(1000, 100)`` (Sec 4.1).

    The paper specifies only how the minimum drifts; the window width is
    fixed (:data:`UNIFORM_WIDTH`) so the stream stays "evenly spread out".
    """

    name = "uniform"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        blocks = -(-n // REDRAW_EVERY)
        minima = rng.normal(*UNIFORM_MIN_DRIFT, blocks)
        per_block_min = np.repeat(minima, REDRAW_EVERY)[:n]
        return per_block_min + rng.random(n) * UNIFORM_WIDTH


class Concatenation(Distribution):
    """Pieces drawn back to back — the Sec 4.5.7 adaptability workload.

    ``Concatenation([(dist_a, n_a), (dist_b, n_b)])`` yields exactly
    ``n_a`` samples of *dist_a* followed by ``n_b`` of *dist_b*; asking
    for more wraps around, so the generator can also model periodically
    switching regimes.
    """

    def __init__(self, pieces: list[tuple[Distribution, int]]) -> None:
        if not pieces:
            raise InvalidValueError("Concatenation needs at least one piece")
        for _, length in pieces:
            if length < 1:
                raise InvalidValueError(
                    f"piece lengths must be >= 1, got {length!r}"
                )
        self.pieces = list(pieces)
        self._cycle = sum(length for _, length in pieces)
        self._consumed = 0
        self.name = "+".join(d.name for d, _ in pieces)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            position = self._consumed % self._cycle
            for dist, length in self.pieces:
                if position < length:
                    take = min(length - position, n - filled)
                    out[filled : filled + take] = dist.sample(take, rng)
                    filled += take
                    self._consumed += take
                    break
                position -= length
        return out

    def reset(self) -> None:
        """Rewind to the start of the first piece."""
        self._consumed = 0


def adaptability_workload(
    first_half: int = 1_000_000, second_half: int = 1_000_000
) -> Concatenation:
    """The Sec 4.5.7 distribution-shift stream.

    One million points of binomial(n=30, p=0.4) followed by one million
    of U(30, 100): the 0.5-quantile sits exactly at the regime boundary,
    which is where sampling sketches' error jumps in Fig 8b.
    """
    return Concatenation(
        [
            (Binomial(30, 0.4), first_half),
            (Uniform(30.0, 100.0), second_half),
        ]
    )
