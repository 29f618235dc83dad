"""Operation-speed experiments (Fig 5 of the paper).

Three measurements, each run as plain single-threaded code for
performance isolation (the paper uses standalone Java applications):

* **insertion** (Fig 5a) — per-element ``update`` cost on values
  pre-sampled from Pareto(1, 1);
* **query** (Fig 5b) — time to answer the paper's quantile set as a
  function of how much data the sketch has consumed;
* **merge** (Fig 5c) — time to merge two sketches while folding
  100 (or 1000) pre-filled sketches into one, with sketches fed from
  uniform, binomial and Zipf streams.

Each figure is the median of repeated runs, reported with its
interquartile range, and every run is timed through one
:class:`~repro.service.clock.MonotonicClock`.

Absolute numbers are CPython numbers; the paper's *orderings* (DDSketch
fastest insert/query, Moments fastest merge, UDDSketch slowest insert
and merge) are what the benchmarks assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TypeVar

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
from repro.service.clock import MonotonicClock

#: Pre-sampling distribution for insertion/query speed (Sec 4.1).
SPEED_DISTRIBUTION = Pareto(shape=1.0, scale=1.0)

#: Distributions feeding the sketches merged in Fig 5c (Sec 4.1).
MERGE_DISTRIBUTIONS = (
    Uniform(30.0, 100.0),
    Binomial(100, 0.2),
    Zipf(20, 0.6),
)

#: Times the insertion and merge loops are repeated per sketch; the
#: median is the reported figure and the interquartile range its spread.
SPEED_REPEATS = 5

_CLOCK = MonotonicClock()

T = TypeVar("T")


def timed(fn: Callable[..., T], *args: Any) -> tuple[T, float]:
    """Call ``fn(*args)`` once; return its result and the seconds it
    took.  Every timed region of the experiments reads this one clock.
    """
    start = _CLOCK.now_ms()
    result = fn(*args)
    return result, (_CLOCK.now_ms() - start) / 1000.0


def _apply_each(fn: Callable[[Any], object], items: Iterable[Any]) -> None:
    """The timed loop of Fig 5a (``update``) and Fig 5c (``merge``)."""
    for item in items:
        fn(item)


def _cold_query(sketch: Any) -> list[float]:
    """One Fig 5b query: the paper times cold reads."""
    sketch._drop_query_caches()
    return sketch.quantiles(PAPER_QUANTILES)


@dataclass
class SpeedResult:
    """Seconds-per-operation measurements keyed by sketch name.

    ``seconds_per_op`` holds the median over the repeated runs and
    ``iqr`` their interquartile range, both in seconds per operation.
    """

    operation: str
    seconds_per_op: dict[str, float]
    iqr: dict[str, float] = field(default_factory=dict)
    detail: dict[str, dict] = field(default_factory=dict)

    def add_runs(self, name: str, per_op: list[float]) -> None:
        """Store the median and IQR of one sketch's repeated runs."""
        q1, median, q3 = np.percentile(per_op, (25, 50, 75))
        self.seconds_per_op[name] = float(median)
        self.iqr[name] = float(q3 - q1)

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        rows = [
            [
                name,
                format_seconds(sec),
                format_seconds(self.iqr[name]) if name in self.iqr else "-",
                f"{sec:.3e}",
            ]
            for name, sec in sorted(
                self.seconds_per_op.items(), key=lambda kv: kv[1]
            )
        ]
        return format_table(
            ["sketch", "median/op", "IQR/op", "seconds"],
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
    """Fig 5a: per-element insertion time.

    Values are pre-sampled so generation cost is excluded, and inserted
    one at a time through ``update`` — the paper measures the scalar
    insert path, not batched ingestion.  Each of the
    :data:`SPEED_REPEATS` runs fills a fresh sketch.
    """
    scale = scale or current_scale()
    rng = np.random.default_rng(BASE_SEED)
    values = SPEED_DISTRIBUTION.sample(scale.speed_points, rng).tolist()
    result = SpeedResult(operation="insertion", seconds_per_op={})
    for name in sketches:
        per_op = []
        for _ in range(SPEED_REPEATS):
            sketch = paper_config(name, dataset="pareto", seed=BASE_SEED)
            _, elapsed = timed(_apply_each, sketch.update, values)
            per_op.append(elapsed / len(values))
        result.add_runs(name, per_op)
        result.detail[name] = {"count": sketch.count}
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
    (0.05...0.99), timed once per repetition.
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
            # Warm-up / solver prime; its answers are kept for checking.
            estimates = sketch.quantiles(PAPER_QUANTILES)
            result.add_runs(
                name,
                [timed(_cold_query, sketch)[1] for _ in range(repetitions)],
            )
            result.detail[name] = {"estimates": estimates}
        results[size] = result
    return results


def measure_merge(
    sketches: tuple[str, ...] = DEFAULT_SKETCHES,
    num_sketches: int | None = None,
    scale: ExperimentScale | None = None,
) -> SpeedResult:
    """Fig 5c: time to merge two sketches.

    *num_sketches* pre-filled sketches (fed from the three merge
    distributions round-robin) are folded sequentially into a fresh
    accumulator; one run's figure is its total time divided by the
    number of merge operations.  Each of the :data:`SPEED_REPEATS` runs
    folds the same operands into a fresh accumulator.
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
        per_op = []
        for _ in range(SPEED_REPEATS):
            accumulator = paper_config(name, seed=BASE_SEED - 1)
            _, elapsed = timed(_apply_each, accumulator.merge, prefilled)
            per_op.append(elapsed / num_sketches)
        result.add_runs(name, per_op)
        result.detail[name] = {
            "merged_count": accumulator.count,
            "size_bytes": accumulator.size_bytes(),
        }
    return result
