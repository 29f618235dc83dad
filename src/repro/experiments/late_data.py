"""Late-arriving data experiment (Sec 4.6 of the paper).

Re-runs the Fig 6 accuracy methodology with an exponential network
delay (mean 150 ms) applied to every event's arrival time.  The engine
drops events whose window has already fired; the ground truth per
window is computed over the *same* surviving events, and additionally
against the ideal no-loss window, so the experiment quantifies both the
sketch error and the loss-induced drift the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import PAPER_SKETCHES
from repro.data import DEFAULT_DELAY_MEAN_MS
from repro.experiments.accuracy import AccuracyResult, run_accuracy
from repro.experiments.config import (
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_table


@dataclass
class LateDataResult:
    """Side-by-side accuracy with and without network delay."""

    with_delay: dict[str, AccuracyResult]
    without_delay: dict[str, AccuracyResult]
    delay_mean_ms: float

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        rows = []
        for dataset, delayed in self.with_delay.items():
            ideal = self.without_delay[dataset]
            for sketch in delayed.grouped:
                rows.append(
                    [
                        dataset,
                        sketch,
                        ideal.grouped[sketch].get("mid", float("nan")),
                        delayed.grouped[sketch].get("mid", float("nan")),
                        ideal.grouped[sketch].get("upper", float("nan")),
                        delayed.grouped[sketch].get("upper", float("nan")),
                        delayed.loss_fraction,
                    ]
                )
        return format_table(
            [
                "dataset", "sketch", "mid", "mid(late)",
                "upper", "upper(late)", "loss",
            ],
            rows,
            title=(
                f"Accuracy with late-arriving data dropped "
                f"(exp. delay mean {self.delay_mean_ms:g} ms)"
            ),
        )


def run_late_data(
    datasets: tuple[str, ...] = ("pareto", "uniform", "nyt", "power"),
    sketches: tuple[str, ...] = PAPER_SKETCHES,
    scale: ExperimentScale | None = None,
    delay_mean_ms: float = DEFAULT_DELAY_MEAN_MS,
) -> LateDataResult:
    """Run Sec 4.6: Fig 6 accuracy with and without the delay model."""
    scale = scale or current_scale()
    with_delay = {
        d: run_accuracy(
            d, sketches, scale=scale, delay_mean_ms=delay_mean_ms
        )
        for d in datasets
    }
    without_delay = {
        d: run_accuracy(d, sketches, scale=scale) for d in datasets
    }
    return LateDataResult(
        with_delay=with_delay,
        without_delay=without_delay,
        delay_mean_ms=delay_mean_ms,
    )
