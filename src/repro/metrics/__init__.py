"""Accuracy, statistics, and memory metrics used by the experiments."""

from repro.metrics.errors import (
    MID_QUANTILES,
    P99_QUANTILE,
    PAPER_QUANTILES,
    UPPER_QUANTILES,
    grouped_errors,
    rank_error,
    relative_error,
    true_quantile,
)
from repro.metrics.memory import sketch_size_kb
from repro.metrics.stats import (
    MeanWithCI,
    excess_kurtosis,
    mean_with_ci,
    summarize,
)

__all__ = [
    "relative_error",
    "rank_error",
    "true_quantile",
    "grouped_errors",
    "PAPER_QUANTILES",
    "MID_QUANTILES",
    "UPPER_QUANTILES",
    "P99_QUANTILE",
    "MeanWithCI",
    "mean_with_ci",
    "excess_kurtosis",
    "summarize",
    "sketch_size_kb",
]
