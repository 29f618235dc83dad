"""Related-work comparison (Sec 5.2 of the paper).

The paper justifies its selection of five sketches by citing prior
head-to-head results; this experiment re-measures those claims against
the baselines implemented here:

* Random (Manku et al.) — improved upon by KLL (Sec 5.2.1);
* HDR histogram — comparable accuracy to DDSketch but bigger
  (Sec 5.2.2);
* Dyadic Count Sketch — beaten by KLL on memory, speed and accuracy,
  and needs prior universe knowledge (Sec 5.2.3);
* t-digest — practical accuracy but no worst-case guarantee
  (Sec 5.2.4);
* GK — the non-mergeable classic the modern sketches superseded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import SKETCHES, paper_config
from repro.experiments.config import BASE_SEED, ExperimentScale, current_scale
from repro.experiments.reporting import format_table
from repro.experiments.speed import timed
from repro.metrics.errors import PAPER_QUANTILES, rank_error, relative_error, true_quantile

#: Paper's five plus every related-work baseline (ground truth excluded).
COMPARED = tuple(
    name for name, spec in SKETCHES.items() if spec.role != "truth"
)


@dataclass
class RelatedWorkResult:
    """Per-sketch accuracy/space/speed over a bounded-universe stream."""

    rows: dict[str, dict[str, float]]

    def to_table(self) -> str:
        """Render the result as a paper-style text table."""
        table_rows = [
            [
                name,
                row["mean_rel_err"],
                row["mean_rank_err"],
                row["size_kb"],
                round(row["ingest_ns_per_value"]),
                row["query_ms"],
            ]
            for name, row in self.rows.items()
        ]
        return format_table(
            [
                "sketch", "rel err", "rank err", "KB",
                "ingest ns/value", "query ms",
            ],
            table_rows,
            title="Related-work comparison (Sec 5.2 baselines)",
        )


def run_related_work(
    scale: ExperimentScale | None = None,
) -> RelatedWorkResult:
    """Measure every implemented sketch on one bounded integer stream.

    The workload is uniform over ``[0, 2^20)`` so the Dyadic Count
    Sketch (which needs a bounded universe) can participate; GK ingests
    a fixed-size prefix because its per-item insert is O(summary), so
    ingest is reported per value to compare equal work.
    """
    scale = scale or current_scale()
    rng = np.random.default_rng(BASE_SEED)
    n = min(scale.speed_points, 500_000)
    data = rng.integers(1, 1 << 20, n).astype(np.float64)
    sorted_data = np.sort(data)

    rows: dict[str, dict[str, float]] = {}
    for name in COMPARED:
        sketch = paper_config(name, seed=BASE_SEED)
        stream = data[: min(50_000, n)] if name == "gk" else data
        _, ingest = timed(sketch.update_batch, stream)
        estimates, query = timed(sketch.quantiles, PAPER_QUANTILES)
        reference = sorted_data if stream is data else np.sort(stream)

        rel_errors = []
        rank_errors = []
        for q, est in zip(PAPER_QUANTILES, estimates):
            true = true_quantile(reference, q)
            rel_errors.append(relative_error(true, est))
            rank_errors.append(rank_error(reference, q, est))
        rows[name] = {
            "mean_rel_err": float(np.mean(rel_errors)),
            "mean_rank_err": float(np.mean(rank_errors)),
            "size_kb": sketch.size_bytes() / 1000.0,
            "ingest_ns_per_value": ingest / stream.size * 1e9,
            "query_ms": query * 1000.0,
        }
    return RelatedWorkResult(rows=rows)
