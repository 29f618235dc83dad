"""Data-set characterisation (Fig 4 of the paper).

The paper's Fig 4 shows the PDF histogram of each data set; this runner
produces the numeric equivalent — histogram bins, summary statistics
and excess kurtosis — so the workload shapes can be inspected and
asserted without plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import ACCURACY_DATASETS
from repro.experiments.config import BASE_SEED, ExperimentScale, current_scale
from repro.experiments.reporting import format_table
from repro.metrics.stats import summarize

#: Histogram bins per profiled data set.
PROFILE_BINS = 60


@dataclass
class DatasetProfile:
    """Numeric profile of one workload."""

    name: str
    stats: dict[str, float]
    histogram: np.ndarray
    bin_edges: np.ndarray

    @property
    def modes(self) -> list[float]:
        """Histogram-bin centres of local maxima (descending count)."""
        counts = self.histogram
        centres = (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0
        peaks = [
            i
            for i in range(1, counts.size - 1)
            if counts[i] >= counts[i - 1] and counts[i] >= counts[i + 1]
            and counts[i] > 0
        ]
        peaks.sort(key=lambda i: -counts[i])
        return [float(centres[i]) for i in peaks]


def profile_datasets(
    scale: ExperimentScale | None = None,
) -> dict[str, DatasetProfile]:
    """Profile the four accuracy data sets at the current scale, each
    as a :data:`PROFILE_BINS`-bin histogram."""
    scale = scale or current_scale()
    profiles: dict[str, DatasetProfile] = {}
    for name, factory in ACCURACY_DATASETS.items():
        rng = np.random.default_rng(BASE_SEED)
        values = factory().sample(scale.memory_points, rng)
        # Clip the histogram range to the 99.5th percentile so heavy
        # tails don't flatten the picture (as the paper's plots do).
        hi = float(np.quantile(values, 0.995))
        histogram, edges = np.histogram(
            values, bins=PROFILE_BINS, range=(float(values.min()), hi)
        )
        profiles[name] = DatasetProfile(
            name=name,
            stats=summarize(values),
            histogram=histogram,
            bin_edges=edges,
        )
    return profiles


def profiles_table(profiles: dict[str, DatasetProfile]) -> str:
    """Render data-set profiles as the Fig 4 companion table."""
    headers = [
        "dataset", "count", "mean", "median", "p75", "max", "kurtosis",
    ]
    rows = [
        [
            p.name,
            int(p.stats["count"]),
            p.stats["mean"],
            p.stats["median"],
            p.stats["p75"],
            p.stats["max"],
            p.stats["kurtosis"],
        ]
        for p in profiles.values()
    ]
    return format_table(headers, rows, title="Data set profiles (Fig 4)")
