"""Helpers every workload shares: exact references and harness metrics.

The exact quantile is computed here, not by the program under test:
the item of rank ``ceil(q * N)`` of the sorted input (the paper's
Sec 2.1 definition).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from calib import Phase, geomean, percentile, spread
from spec import ALPHA_GUARANTEE, ERROR_THRESHOLDS, SKETCHES


def exact_quantile(sorted_values: np.ndarray, q: float) -> float:
    rank = max(math.ceil(q * sorted_values.size), 1)
    return float(sorted_values[rank - 1])


def relative_errors(
    estimates: Sequence[float],
    sorted_values: np.ndarray,
    qs: Sequence[float],
) -> list[float]:
    """``|x_q - estimate| / |x_q|`` per quantile; inf for a non-finite
    estimate so it can never pass a threshold."""
    errors = []
    for q, estimate in zip(qs, estimates):
        truth = exact_quantile(sorted_values, q)
        estimate = float(estimate)
        if not math.isfinite(estimate) or truth == 0.0:
            errors.append(math.inf)
        else:
            errors.append(abs(truth - estimate) / abs(truth))
    return errors


def check_errors(
    ctx: Any, sketch: str, samples: Sequence[Sequence[float]]
) -> float:
    """Hold *sketch* to its thresholds on this workload; return its mean
    relative error over *samples* (one list of per-quantile errors per
    sketch instance)."""
    mean = float(np.mean([np.mean(sample) for sample in samples]))
    ctx.note(f"rel_error.{sketch}", mean)
    limit = ERROR_THRESHOLDS[ctx.workload][sketch]
    ctx.check(mean <= limit,
              f"{sketch}: mean relative error {mean:.5f} > {limit}")
    if sketch in ("ddsketch", "uddsketch"):
        worst = max(max(sample) for sample in samples)
        ctx.check(worst <= ALPHA_GUARANTEE * (1 + 1e-9),
                  f"{sketch}: answer off by {worst:.5f} > alpha")
    return mean


class FiveSketchResult:
    """What one pass of a five-sketch workload measured."""

    def __init__(self, ctx: Any, tracer: Any) -> None:
        self.ingest = {
            name: Phase(ctx.cal, f"ingest.{name}", tracer)
            for name in SKETCHES
        }
        self.query = Phase(ctx.cal, "query", tracer)
        self.errors: dict[str, float] = {}
        self.state_bytes = 0.0

    def ingest_rate(self) -> float:
        """Geometric mean, so each sketch counts equally."""
        return geomean([self.ingest[name].rate() for name in SKETCHES])

    def raw_ingest_rate(self) -> float:
        return geomean([self.ingest[name].raw_rate() for name in SKETCHES])

    def emit_end_to_end(self, ctx: Any) -> None:
        ctx.emit("ingest_values_per_s", self.ingest_rate(),
                 sum(len(phase.blocks) for phase in self.ingest.values()))
        ctx.emit("query_p50_us",
                 sum(self.query.op_p50_us(name) for name in SKETCHES),
                 self.query.op_count(SKETCHES[0]))
        ctx.emit("rel_error_mean", geomean(list(self.errors.values())))
        ctx.emit("state_bytes", self.state_bytes)


def emit_harness(
    ctx: Any, plain_rate: float, traced_rate: float, raw_rate: float
) -> None:
    """The four ``harness.*`` layer metrics every workload reports."""
    readings = ctx.cal.readings
    ctx.emit("harness.cal_ms_p50", percentile(readings, 50) * 1e3,
             len(readings))
    ctx.emit("harness.cal_ms_spread", spread(readings), len(readings))
    ctx.emit("harness.raw_ingest_values_per_s", raw_rate)
    ctx.emit("harness.trace_overhead_share", 1.0 - traced_rate / plain_rate)
