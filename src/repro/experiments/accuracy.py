"""Windowed accuracy experiments (Fig 6, Sec 4.6, Sec 4.7).

The methodology mirrors Sec 4.2 of the paper: a rate-controlled source
feeds event-time tumbling windows in the streaming engine; each window
is summarised by every sketch; the first window of a run is discarded;
relative errors against the window's true quantiles are averaged over
the remaining windows; and everything is repeated over independent runs
to obtain means with 95% confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import PAPER_SKETCHES, paper_config
from repro.data import ACCURACY_DATASETS, adaptability_workload, generate_stream
from repro.data.distributions import Distribution
from repro.errors import ExperimentError
from repro.experiments.config import (
    BASE_SEED,
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_table
from repro.metrics.errors import grouped_errors, relative_error, true_quantile
from repro.metrics.stats import MeanWithCI, mean_with_ci
from repro.streaming.engine import run_tumbling_batch, window_values
from repro.streaming.operators import SketchAggregator


@dataclass
class AccuracyResult:
    """Relative-error results of one accuracy experiment.

    ``per_quantile[sketch][q]`` is the mean relative error (with CI)
    over runs; ``grouped[sketch]`` holds the paper's mid/upper/p99
    aggregation.  ``loss_fraction`` reports late-drop loss when a
    network-delay model was active.
    """

    dataset: str
    quantiles: tuple[float, ...]
    per_quantile: dict[str, dict[float, MeanWithCI]]
    grouped: dict[str, dict[str, float]]
    loss_fraction: float = 0.0
    window_size_ms: float = 0.0
    extras: dict[str, object] = field(default_factory=dict)

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        headers = ["sketch"] + [f"q{q:g}" for q in self.quantiles] + [
            "mid", "upper", "p99",
        ]
        rows = []
        for sketch, errors in self.per_quantile.items():
            groups = self.grouped[sketch]
            rows.append(
                [sketch]
                + [errors[q].mean for q in self.quantiles]
                + [
                    groups.get("mid", float("nan")),
                    groups.get("upper", float("nan")),
                    groups.get("p99", float("nan")),
                ]
            )
        title = (
            f"Mean relative error — {self.dataset} "
            f"(window {self.window_size_ms / 1000:g}s, "
            f"late-drop loss {self.loss_fraction:.2%})"
        )
        return format_table(headers, rows, title=title)

    def to_figure(self) -> str:
        """ASCII rendering in the paper's Fig 6 layout: one bar block
        per quantile band, bars per sketch, shared scale."""
        from repro.experiments.figures import grouped_bar_chart

        groups = {
            band: {
                sketch: grouped.get(band, 0.0)
                for sketch, grouped in self.grouped.items()
            }
            for band in ("mid", "upper", "p99")
        }
        return grouped_bar_chart(
            groups,
            title=f"relative error by quantile band — {self.dataset}",
        )


def _resolve_dataset(dataset: str | Distribution) -> tuple[str, Distribution]:
    if isinstance(dataset, Distribution):
        return dataset.name, dataset
    try:
        return dataset, ACCURACY_DATASETS[dataset]()
    except KeyError:
        raise ExperimentError(
            f"unknown dataset {dataset!r}; expected one of "
            f"{sorted(ACCURACY_DATASETS)} or a Distribution instance"
        ) from None


def run_accuracy(
    dataset: str | Distribution,
    sketches: tuple[str, ...] = PAPER_SKETCHES,
    scale: ExperimentScale | None = None,
    delay_mean_ms: float | None = None,
    window_size_ms: float | None = None,
) -> AccuracyResult:
    """Run the Fig 6 accuracy methodology on one data set.

    Set *delay_mean_ms* to add the Sec 4.6 network-delay model (late
    events are dropped by the engine and excluded from the ground truth
    the same way).  *window_size_ms* overrides the scale's window for
    the Sec 4.7 sensitivity analysis.
    """
    scale = scale or current_scale()
    window_ms = window_size_ms or scale.window_size_ms
    qs = scale.quantiles
    dataset_name, distribution = _resolve_dataset(dataset)

    per_run_errors: dict[str, dict[float, list[float]]] = {
        s: {q: [] for q in qs} for s in sketches
    }
    losses: list[float] = []
    duration_ms = window_ms * (scale.num_windows + 1)

    for run in range(scale.num_runs):
        rng = np.random.default_rng(BASE_SEED + run)
        batch = generate_stream(
            distribution,
            duration_ms,
            rng,
            rate_per_sec=scale.rate_per_sec,
            delay_mean_ms=delay_mean_ms,
        )
        truth = window_values(batch, window_ms)
        spans = sorted(truth)
        measured_spans = spans[1:]  # discard the first window (Sec 4.2)
        if not measured_spans:
            raise ExperimentError(
                "stream too short: no windows left after discarding the "
                "first one"
            )

        for sketch_name in sketches:
            aggregator = SketchAggregator(
                lambda: paper_config(
                    sketch_name, dataset=dataset_name, seed=BASE_SEED + run
                ),
                qs,
            )
            report = run_tumbling_batch(batch, window_ms, aggregator)
            estimates = {r.window: r.result for r in report.results}
            window_errors: dict[float, list[float]] = {q: [] for q in qs}
            for span in measured_spans:
                true_sorted = truth[span]
                for q in qs:
                    true_q = true_quantile(true_sorted, q)
                    est = estimates[span][q]
                    window_errors[q].append(relative_error(true_q, est))
            for q in qs:
                per_run_errors[sketch_name][q].append(
                    float(np.mean(window_errors[q]))
                )
        total = len(batch)
        kept = sum(len(truth[s]) for s in spans)
        losses.append(1.0 - kept / total)

    per_quantile = {
        s: {q: mean_with_ci(np.asarray(v)) for q, v in qerrs.items()}
        for s, qerrs in per_run_errors.items()
    }
    grouped = {
        s: grouped_errors({q: ci.mean for q, ci in qerrs.items()})
        for s, qerrs in per_quantile.items()
    }
    return AccuracyResult(
        dataset=dataset_name,
        quantiles=tuple(qs),
        per_quantile=per_quantile,
        grouped=grouped,
        loss_fraction=float(np.mean(losses)),
        window_size_ms=window_ms,
    )


def run_adaptability(
    sketches: tuple[str, ...] = PAPER_SKETCHES,
    scale: ExperimentScale | None = None,
) -> AccuracyResult:
    """The Sec 4.5.7 distribution-shift experiment (Fig 8).

    A single window holds a stream whose first half is binomial(30, 0.4)
    and second half uniform(30, 100); the 0.5-quantile falls exactly at
    the regime boundary.  Errors are reported per quantile over
    independent runs.
    """
    scale = scale or current_scale()
    qs = scale.quantiles
    half = scale.events_per_window // 2
    per_run_errors: dict[str, dict[float, list[float]]] = {
        s: {q: [] for q in qs} for s in sketches
    }
    for run in range(scale.num_runs):
        rng = np.random.default_rng(BASE_SEED + run)
        workload = adaptability_workload(half, half)
        values = workload.sample(2 * half, rng)
        true_sorted = np.sort(values)
        for sketch_name in sketches:
            sketch = paper_config(sketch_name, seed=BASE_SEED + run)
            sketch.update_batch(values)
            estimates = sketch.quantiles(qs)
            for q, est in zip(qs, estimates):
                per_run_errors[sketch_name][q].append(
                    relative_error(true_quantile(true_sorted, q), est)
                )
    per_quantile = {
        s: {q: mean_with_ci(np.asarray(v)) for q, v in qerrs.items()}
        for s, qerrs in per_run_errors.items()
    }
    grouped = {
        s: grouped_errors({q: ci.mean for q, ci in qerrs.items()})
        for s, qerrs in per_quantile.items()
    }
    return AccuracyResult(
        dataset="binomial->uniform",
        quantiles=tuple(qs),
        per_quantile=per_quantile,
        grouped=grouped,
        window_size_ms=scale.window_size_ms,
    )
