"""Statistical helpers for the experiment harness.

Covers the summary statistics the paper reports: means with 95%
confidence intervals over independent runs (its error bars), and excess
kurtosis (Sec 2.3).

This is the only module in ``repro`` that uses scipy, and it imports
``scipy.stats`` inside the two functions that call it. ``scipy.stats``
costs ~1 s and ~60 MB on import, and only the experiments ever compute
a confidence interval or a kurtosis, so the service, the benchmark
workers and the examples never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidValueError


@dataclass(frozen=True)
class MeanWithCI:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "MeanWithCI") -> bool:
        """Whether the two intervals overlap (the paper's significance
        reading: overlapping error bars = not significant)."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.2g}"


def mean_with_ci(
    samples: np.ndarray, confidence: float = 0.95
) -> MeanWithCI:
    """Mean and t-based confidence interval of independent run results.

    Matches the paper's methodology: results are averaged over
    independent runs and error bars show 95% confidence intervals around
    the means (Sec 4.2).  A single sample yields a zero-width interval.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise InvalidValueError("mean_with_ci needs at least one sample")
    if not 0.0 < confidence < 1.0:
        raise InvalidValueError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    mean = float(samples.mean())
    if samples.size == 1:
        return MeanWithCI(mean, 0.0, 1, confidence)
    from scipy import stats

    sem = float(samples.std(ddof=1)) / np.sqrt(samples.size)
    t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, samples.size - 1))
    return MeanWithCI(mean, t_crit * sem, int(samples.size), confidence)


def excess_kurtosis(values: np.ndarray) -> float:
    """Excess kurtosis (normal = 0), the paper's tail-weight measure."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 4:
        raise InvalidValueError(
            "kurtosis needs at least 4 samples"
        )
    from scipy import stats

    return float(stats.kurtosis(values))


def summarize(values: np.ndarray) -> dict[str, float]:
    """Descriptive statistics of a sample, for data-set reporting
    (the Fig 4 companion numbers)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise InvalidValueError("summarize needs a non-empty sample")
    return {
        "count": float(values.size),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "min": float(values.min()),
        "p25": float(np.quantile(values, 0.25)),
        "median": float(np.median(values)),
        "p75": float(np.quantile(values, 0.75)),
        "max": float(values.max()),
        "kurtosis": excess_kurtosis(values) if values.size >= 4 else 0.0,
    }
