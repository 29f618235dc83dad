"""Window-size sensitivity analysis (Sec 4.7 of the paper).

Runs the accuracy methodology with 5 s, 10 s and 20 s tumbling windows
and reports the overall mean relative error per sketch and window size.
The paper's finding: synthetic data sets are insensitive; on real-world
data Moments Sketch improves with larger windows (smoother observed
shape) while KLL/REQ degrade slightly (more compactions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import PAPER_SKETCHES
from repro.experiments.accuracy import AccuracyResult, run_accuracy
from repro.experiments.config import (
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_table

#: The paper's window sizes, in seconds.
WINDOW_SIZES_S = (5.0, 10.0, 20.0)


@dataclass
class WindowSizeResult:
    """``results[dataset][window_s]`` — full accuracy results."""

    results: dict[str, dict[float, AccuracyResult]]

    def overall_error(self, dataset: str, window_s: float, sketch: str) -> float:
        """Mean relative error over all queried quantiles."""
        per_q = self.results[dataset][window_s].per_quantile[sketch]
        return float(np.mean([ci.mean for ci in per_q.values()]))

    def trend(self, dataset: str, sketch: str) -> float:
        """Error change from the smallest to the largest window
        (negative = larger windows are more accurate)."""
        sizes = sorted(self.results[dataset])
        return self.overall_error(dataset, sizes[-1], sketch) - (
            self.overall_error(dataset, sizes[0], sketch)
        )

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        rows = []
        for dataset, by_size in self.results.items():
            sketches = list(
                next(iter(by_size.values())).per_quantile
            )
            for sketch in sketches:
                row = [dataset, sketch]
                for size in sorted(by_size):
                    row.append(self.overall_error(dataset, size, sketch))
                row.append(self.trend(dataset, sketch))
                rows.append(row)
        sizes = sorted(next(iter(self.results.values())))
        headers = (
            ["dataset", "sketch"]
            + [f"{s:g}s" for s in sizes]
            + ["trend"]
        )
        return format_table(
            headers, rows,
            title="Mean relative error by window size (Sec 4.7)",
        )


def run_window_size(
    datasets: tuple[str, ...] = ("pareto", "uniform", "nyt", "power"),
    sketches: tuple[str, ...] = PAPER_SKETCHES,
    scale: ExperimentScale | None = None,
    window_sizes_s: tuple[float, ...] = WINDOW_SIZES_S,
) -> WindowSizeResult:
    """Run the Sec 4.7 sensitivity sweep."""
    scale = scale or current_scale()
    results: dict[str, dict[float, AccuracyResult]] = {}
    for dataset in datasets:
        results[dataset] = {}
        for window_s in window_sizes_s:
            results[dataset][window_s] = run_accuracy(
                dataset,
                sketches,
                scale=scale,
                window_size_ms=window_s * 1000.0,
            )
    return WindowSizeResult(results=results)
