"""Experiment scale configuration.

The paper runs 1M-element windows (50,000 events/s x 20 s), 11 windows
per run and 10 independent runs.  Pure Python is roughly two orders of
magnitude slower than the JVM, so the default scale trims the stream
while preserving every structural property (window count, drop policy,
quantile set).  Select a scale with the ``REPRO_SCALE`` environment
variable: ``smoke`` (CI-sized), ``quick`` (default) or ``paper``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.metrics.errors import PAPER_QUANTILES


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiment runners.

    Attributes mirror Sec 4.2 of the paper; ``events_per_window`` is
    ``rate_per_sec * window_size_ms / 1000``.
    """

    name: str
    rate_per_sec: int
    window_size_ms: float
    num_windows: int          # windows measured (first one is discarded)
    num_runs: int
    memory_points: int        # stream length for the Table 3 measurement
    speed_points: int         # stream length for Fig 5 speed runs
    merge_sketches: int       # sketches merged in the Fig 5c experiment
    merge_prefill: int        # events pre-filled into each merged sketch
    quantiles: tuple[float, ...] = field(default=PAPER_QUANTILES)

    @property
    def events_per_window(self) -> int:
        return int(self.rate_per_sec * self.window_size_ms / 1000.0)

    @property
    def duration_ms(self) -> float:
        """Stream duration covering the discarded first window plus the
        measured ones."""
        return self.window_size_ms * (self.num_windows + 1)


SCALES: dict[str, ExperimentScale] = {
    # CI-sized: seconds per experiment.
    "smoke": ExperimentScale(
        name="smoke",
        rate_per_sec=1_000,
        window_size_ms=2_000.0,
        num_windows=2,
        num_runs=2,
        memory_points=20_000,
        speed_points=20_000,
        merge_sketches=20,
        merge_prefill=5_000,
    ),
    # Default: preserves the paper's shapes in ~minutes overall.
    "quick": ExperimentScale(
        name="quick",
        rate_per_sec=5_000,
        window_size_ms=20_000.0,
        num_windows=5,
        num_runs=3,
        memory_points=1_000_000,
        speed_points=200_000,
        merge_sketches=100,
        merge_prefill=50_000,
    ),
    # The paper's configuration (slow in pure Python).
    "paper": ExperimentScale(
        name="paper",
        rate_per_sec=50_000,
        window_size_ms=20_000.0,
        num_windows=10,
        num_runs=10,
        memory_points=1_000_000,
        speed_points=1_000_000,
        merge_sketches=1_000,
        merge_prefill=1_000_000,
    ),
}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default ``quick``)."""
    name = os.environ.get("REPRO_SCALE", "quick").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ExperimentError(
            f"REPRO_SCALE={name!r} is not one of {sorted(SCALES)}"
        ) from None


#: Base seed; run ``r`` of an experiment uses ``BASE_SEED + r``.
BASE_SEED = 20230328  # EDBT 2023 opening day
