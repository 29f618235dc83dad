"""Operation-speed experiments (Fig 5 of the paper).

Three measurements, each run as plain single-threaded code for
performance isolation (the paper uses standalone Java applications):

* **insertion** (Fig 5a) — mean per-element ``update`` cost on values
  pre-sampled from Pareto(1, 1);
* **query** (Fig 5b) — time to answer the paper's quantile set as a
  function of how much data the sketch has consumed;
* **merge** (Fig 5c) — mean time to merge two sketches while folding
  100 (or 1000) pre-filled sketches into one, with sketches fed from
  uniform, binomial and Zipf streams.

Absolute numbers are CPython numbers; the paper's *orderings* (DDSketch
fastest insert/query, Moments fastest merge, UDDSketch slowest insert
and merge) are what the benchmarks assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import paper_config
from repro.data.distributions import Binomial, Pareto, Uniform, Zipf
from repro.experiments.config import (
    BASE_SEED,
    DEFAULT_SKETCHES,
    ExperimentScale,
    current_scale,
)
from repro.experiments.reporting import format_seconds, format_table
from repro.metrics.errors import PAPER_QUANTILES

#: Pre-sampling distribution for insertion/query speed (Sec 4.1).
SPEED_DISTRIBUTION = Pareto(shape=1.0, scale=1.0)

#: Distributions feeding the sketches merged in Fig 5c (Sec 4.1).
MERGE_DISTRIBUTIONS = (
    Uniform(30.0, 100.0),
    Binomial(100, 0.2),
    Zipf(20, 0.6),
)


@dataclass
class SpeedResult:
    """Seconds-per-operation measurements keyed by sketch name."""

    operation: str
    seconds_per_op: dict[str, float]
    detail: dict[str, dict] = field(default_factory=dict)

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        rows = [
            [name, format_seconds(sec), f"{sec:.3e}"]
            for name, sec in sorted(
                self.seconds_per_op.items(), key=lambda kv: kv[1]
            )
        ]
        return format_table(
            ["sketch", "time/op", "seconds"],
            rows,
            title=f"{self.operation} speed",
        )

    def ranking(self) -> list[str]:
        """Sketch names ordered fastest first."""
        return sorted(self.seconds_per_op, key=self.seconds_per_op.get)


def measure_insertion(
    sketches: tuple[str, ...] = DEFAULT_SKETCHES,
    scale: ExperimentScale | None = None,
) -> SpeedResult:
    """Fig 5a: mean per-element insertion time.

    Values are pre-sampled so generation cost is excluded, and inserted
    one at a time through ``update`` — the paper measures the scalar
    insert path, not batched ingestion.
    """
    scale = scale or current_scale()
    rng = np.random.default_rng(BASE_SEED)
    values = SPEED_DISTRIBUTION.sample(scale.speed_points, rng).tolist()
    result = SpeedResult(operation="insertion", seconds_per_op={})
    for name in sketches:
        sketch = paper_config(name, dataset="pareto", seed=BASE_SEED)
        update = sketch.update
        start = time.perf_counter()
        for value in values:
            update(value)
        elapsed = time.perf_counter() - start
        result.seconds_per_op[name] = elapsed / len(values)
    return result


def measure_query(
    sketches: tuple[str, ...] = DEFAULT_SKETCHES,
    data_sizes: tuple[int, ...] | None = None,
    scale: ExperimentScale | None = None,
    repetitions: int = 5,
) -> dict[int, SpeedResult]:
    """Fig 5b: quantile-query time as a function of consumed data size.

    Each sketch is filled to the target size from a pre-sampled Pareto
    stream; one "query" answers the paper's full quantile set
    (0.05...0.99), timed over several repetitions.
    """
    scale = scale or current_scale()
    if data_sizes is None:
        top = scale.speed_points
        data_sizes = tuple(
            n for n in (10_000, 100_000, 1_000_000, 10_000_000) if n <= top
        ) or (top,)
    rng = np.random.default_rng(BASE_SEED)
    values = SPEED_DISTRIBUTION.sample(max(data_sizes), rng)
    results: dict[int, SpeedResult] = {}
    for size in data_sizes:
        result = SpeedResult(
            operation=f"query@{size}", seconds_per_op={}
        )
        for name in sketches:
            sketch = paper_config(name, dataset="pareto", seed=BASE_SEED)
            sketch.update_batch(values[:size])
            sketch.quantiles(PAPER_QUANTILES)  # warm-up / solver prime
            start = time.perf_counter()
            for _ in range(repetitions):
                sketch._drop_query_caches()  # the paper times cold reads
                sketch.quantiles(PAPER_QUANTILES)
            elapsed = time.perf_counter() - start
            result.seconds_per_op[name] = elapsed / repetitions
        results[size] = result
    return results


def measure_merge(
    sketches: tuple[str, ...] = DEFAULT_SKETCHES,
    num_sketches: int | None = None,
    scale: ExperimentScale | None = None,
) -> SpeedResult:
    """Fig 5c: mean time to merge two sketches.

    *num_sketches* pre-filled sketches (fed from the three merge
    distributions round-robin) are folded sequentially into a fresh
    accumulator; the reported figure is total time divided by the
    number of merge operations.
    """
    scale = scale or current_scale()
    num_sketches = num_sketches or scale.merge_sketches
    rng = np.random.default_rng(BASE_SEED)
    streams = [
        dist.sample(scale.merge_prefill, rng)
        for dist in MERGE_DISTRIBUTIONS
    ]
    result = SpeedResult(operation=f"merge@{num_sketches}", seconds_per_op={})
    for name in sketches:
        prefilled = []
        for i in range(num_sketches):
            sketch = paper_config(name, seed=BASE_SEED + i)
            sketch.update_batch(streams[i % len(streams)])
            prefilled.append(sketch)
        accumulator = paper_config(name, seed=BASE_SEED - 1)
        start = time.perf_counter()
        for sketch in prefilled:
            accumulator.merge(sketch)
        elapsed = time.perf_counter() - start
        result.seconds_per_op[name] = elapsed / num_sketches
        result.detail[name] = {
            "merged_count": accumulator.count,
            "size_bytes": accumulator.size_bytes(),
        }
    return result
