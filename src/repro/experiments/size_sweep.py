"""Accuracy-versus-space trade-off sweep (extension experiment).

The paper fixes each sketch at one parameter point chosen for a ~1%
error and comparable footprints (Sec 4.2).  This extension sweeps each
sketch's size knob instead, producing the accuracy/space trade-off
curve a practitioner sizing a deployment actually needs:

* KLL — ``max_compactor_size``;
* ReqSketch — ``num_sections``;
* DDSketch / UDDSketch — the accuracy target ``alpha``;
* Moments Sketch — ``num_moments``;
* t-digest — ``compression``.

Each configuration ingests the same stream; the result records the
realised footprint and mean relative error, one curve per sketch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import (
    DDSketch,
    KLLSketch,
    MomentsSketch,
    ReqSketch,
    TDigest,
    UDDSketch,
)
from repro.core.base import QuantileSketch
from repro.data.distributions import DriftingPareto
from repro.errors import ExperimentError
from repro.experiments.config import BASE_SEED, ExperimentScale, current_scale
from repro.experiments.reporting import format_table
from repro.metrics.errors import PAPER_QUANTILES, relative_error, true_quantile

#: How much worse than the best smaller configuration a larger one may
#: be and still count as a monotone size/accuracy trade-off.
MONOTONE_SLACK = 1.5

#: Size knobs swept per sketch: (label, factory) pairs.
SWEEPS: dict[str, list[tuple[str, Callable[[], QuantileSketch]]]] = {
    "kll": [
        (f"k={k}", (lambda k=k: KLLSketch(max_compactor_size=k, seed=0)))
        for k in (50, 100, 200, 350, 700)
    ],
    "req": [
        (f"k={k}", (lambda k=k: ReqSketch(num_sections=k, seed=0)))
        for k in (6, 12, 30, 60)
    ],
    "ddsketch": [
        (f"a={a}", (lambda a=a: DDSketch(alpha=a)))
        for a in (0.05, 0.02, 0.01, 0.005, 0.002)
    ],
    "uddsketch": [
        (
            f"a={a}",
            (lambda a=a: UDDSketch(final_alpha=a, num_collapses=12)),
        )
        for a in (0.05, 0.02, 0.01, 0.005)
    ],
    "moments": [
        (
            f"k={k}",
            (lambda k=k: MomentsSketch(num_moments=k, transform="log")),
        )
        for k in (4, 6, 8, 12, 15)
    ],
    "tdigest": [
        (f"d={d}", (lambda d=d: TDigest(compression=d)))
        for d in (25, 50, 100, 200, 400)
    ],
}


@dataclass
class SizeSweepResult:
    """``curves[sketch]`` = list of (config label, bytes, mean error)."""

    curves: dict[str, list[tuple[str, int, float]]]

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        rows = []
        for sketch, curve in self.curves.items():
            for label, size, error in curve:
                rows.append([sketch, label, size, error])
        return format_table(
            ["sketch", "config", "bytes", "mean rel err"],
            rows,
            title="Accuracy vs space sweep (extension)",
        )

    def is_tradeoff_monotone(self, sketch: str) -> bool:
        """Whether more space never costs much accuracy.

        Allows :data:`MONOTONE_SLACK` because randomized sketches
        wobble; a curve is "monotone" if every larger configuration has
        error at most that many times the best seen so far from the
        smaller ones.
        """
        curve = sorted(self.curves[sketch], key=lambda row: row[1])
        best = np.inf
        for _label, _size, error in curve:
            if error > max(best * MONOTONE_SLACK, best + 1e-4):
                return False
            best = min(best, error)
        return True


def run_size_sweep(
    sketches: tuple[str, ...] = tuple(SWEEPS),
    scale: ExperimentScale | None = None,
) -> SizeSweepResult:
    """Sweep each sketch's size knob over one drifting-Pareto stream."""
    unknown = set(sketches) - set(SWEEPS)
    if unknown:
        raise ExperimentError(
            f"no size sweep defined for {sorted(unknown)}"
        )
    scale = scale or current_scale()
    rng = np.random.default_rng(BASE_SEED)
    values = DriftingPareto().sample(
        min(scale.memory_points, 200_000), rng
    )
    sorted_values = np.sort(values)
    truths = {
        q: true_quantile(sorted_values, q) for q in PAPER_QUANTILES
    }

    curves: dict[str, list[tuple[str, int, float]]] = {}
    for name in sketches:
        curve = []
        for label, factory in SWEEPS[name]:
            sketch = factory()
            sketch.update_batch(values)
            errors = [
                relative_error(truths[q], sketch.quantile(q))
                for q in PAPER_QUANTILES
            ]
            curve.append(
                (label, sketch.size_bytes(), float(np.mean(errors)))
            )
        curves[name] = curve
    return SizeSweepResult(curves=curves)
