"""Tail-weight sensitivity experiment (Fig 7 of the paper).

Measures the relative error of the 0.98-quantile estimate as the excess
kurtosis of the data grows, sweeping the suite of
:func:`repro.data.kurtosis.kurtosis_suite` from the tail-free uniform
to the extremely long-tailed Pareto.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import paper_config
from repro.data.kurtosis import kurtosis_suite
from repro.experiments.config import (
    BASE_SEED,
    DEFAULT_SKETCHES,
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_table
from repro.metrics.errors import relative_error, true_quantile
from repro.metrics.stats import MeanWithCI, excess_kurtosis, mean_with_ci

TARGET_QUANTILE = 0.98


@dataclass
class KurtosisResult:
    """0.98-quantile error per sketch across the kurtosis sweep."""

    labels: list[str]
    measured_kurtosis: dict[str, float]
    errors: dict[str, dict[str, MeanWithCI]]  # errors[label][sketch]

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        sketches = list(next(iter(self.errors.values())))
        headers = ["dataset", "kurtosis"] + sketches
        rows = [
            [label, self.measured_kurtosis[label]]
            + [self.errors[label][s].mean for s in sketches]
            for label in self.labels
        ]
        return format_table(
            headers,
            rows,
            title="Relative error of the 0.98 quantile vs kurtosis (Fig 7)",
        )

    def to_figure(self) -> str:
        """ASCII log-log rendering of the Fig 7 sweep."""
        from repro.experiments.figures import line_chart

        sketches = list(next(iter(self.errors.values())))
        series = {
            sketch: [
                (
                    # Shift so the tail-free end (negative excess
                    # kurtosis) stays on a log axis.
                    self.measured_kurtosis[label] + 2.0,
                    max(self.errors[label][sketch].mean, 1e-6),
                )
                for label in self.labels
            ]
            for sketch in sketches
        }
        return line_chart(
            series,
            title="0.98-quantile error vs kurtosis (log-log)",
            log_x=True,
            log_y=True,
        )


def run_kurtosis_sweep(
    sketches: tuple[str, ...] = DEFAULT_SKETCHES,
    scale: ExperimentScale | None = None,
) -> KurtosisResult:
    """Run the Fig 7 sweep at window size (``events_per_window`` values
    per sample, the paper's 1M at full scale)."""
    scale = scale or current_scale()
    n = scale.events_per_window
    labels: list[str] = []
    measured: dict[str, float] = {}
    errors: dict[str, dict[str, list[float]]] = {}
    # Moments Sketch gets the log transform on wide-range positive data
    # only, mirroring the paper's per-data-set treatment.
    log_transform_labels = {"pareto", "lognormal", "power"}

    for label, distribution, _nominal in kurtosis_suite():
        labels.append(label)
        errors[label] = {s: [] for s in sketches}
        kurtoses = []
        for run in range(scale.num_runs):
            rng = np.random.default_rng(BASE_SEED + run)
            values = distribution.sample(n, rng)
            kurtoses.append(excess_kurtosis(values))
            true_sorted = np.sort(values)
            true_q = true_quantile(true_sorted, TARGET_QUANTILE)
            for name in sketches:
                dataset_hint = (
                    label if label in log_transform_labels else None
                )
                sketch = paper_config(
                    name, dataset=dataset_hint, seed=BASE_SEED + run
                )
                sketch.update_batch(values)
                est = sketch.quantile(TARGET_QUANTILE)
                errors[label][name].append(relative_error(true_q, est))
        measured[label] = float(np.mean(kurtoses))

    summarised = {
        label: {
            s: mean_with_ci(np.asarray(v)) for s, v in by_sketch.items()
        }
        for label, by_sketch in errors.items()
    }
    return KurtosisResult(
        labels=labels, measured_kurtosis=measured, errors=summarised
    )
