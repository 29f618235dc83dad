"""Sketch memory-footprint experiment (Table 3 of the paper).

Each sketch consumes a fixed number of points from each of the four
data sets (1M at paper scale) and reports its final footprint in KB via
``size_bytes()`` — the numeric-payload accounting of Sec 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import PAPER_SKETCHES, paper_config
from repro.data import ACCURACY_DATASETS
from repro.experiments.config import (
    BASE_SEED,
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_table
from repro.metrics.memory import sketch_size_kb


@dataclass
class MemoryResult:
    """``kb[dataset][sketch]`` — final footprint in KB (Table 3)."""

    points: int
    kb: dict[str, dict[str, float]]
    buckets: dict[str, dict[str, int]]

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        datasets = list(self.kb)
        sketches = list(next(iter(self.kb.values())))
        rows = [
            [dataset] + [self.kb[dataset][s] for s in sketches]
            for dataset in datasets
        ]
        return format_table(
            ["dataset"] + sketches,
            rows,
            title=f"Final memory usage (KB) after {self.points:,} points",
        )


def measure_memory(
    sketches: tuple[str, ...] = PAPER_SKETCHES,
    scale: ExperimentScale | None = None,
) -> MemoryResult:
    """Run the Table 3 measurement across the four accuracy data sets."""
    scale = scale or current_scale()
    kb: dict[str, dict[str, float]] = {}
    buckets: dict[str, dict[str, int]] = {}
    for dataset_name, factory in ACCURACY_DATASETS.items():
        rng = np.random.default_rng(BASE_SEED)
        values = factory().sample(scale.memory_points, rng)
        kb[dataset_name] = {}
        buckets[dataset_name] = {}
        for name in sketches:
            sketch = paper_config(name, dataset=dataset_name, seed=BASE_SEED)
            sketch.update_batch(values)
            kb[dataset_name][name] = round(sketch_size_kb(sketch), 2)
            # Structure-size detail discussed in Sec 4.3.
            detail = (
                getattr(sketch, "num_buckets", None)
                or getattr(sketch, "num_retained", None)
                or getattr(sketch, "num_centroids", None)
                or 0
            )
            buckets[dataset_name][name] = int(detail)
    return MemoryResult(points=scale.memory_points, kb=kb, buckets=buckets)
