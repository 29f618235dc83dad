"""Structured export of experiment results.

Every experiment runner returns a result dataclass; this module turns
them into plain JSON-able dictionaries and flat CSV rows so downstream
tooling (plotting scripts, regression dashboards, the paper-comparison
notebook of a reviewer) can consume the reproduction's numbers without
parsing tables.

Use :func:`to_jsonable` for any result object, :func:`write_json` /
:func:`write_csv` for files, or the CLI's ``--output DIR`` flag which
writes one ``<exp-id>.json`` per experiment.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any

from repro.durability.atomicio import atomic_write_text
from repro.errors import ExperimentError
from repro.experiments.accuracy import AccuracyResult
from repro.experiments.datasets import DatasetProfile
from repro.experiments.kurtosis_sweep import KurtosisResult
from repro.experiments.late_data import LateDataResult
from repro.experiments.memory import MemoryResult
from repro.experiments.related_work import RelatedWorkResult
from repro.experiments.size_sweep import SizeSweepResult
from repro.experiments.speed import SpeedResult
from repro.experiments.summary import SummaryTable
from repro.experiments.window_size import WindowSizeResult
from repro.metrics.stats import MeanWithCI


def _ci(ci: MeanWithCI) -> dict[str, float]:
    return {
        "mean": ci.mean,
        "ci_half_width": ci.half_width,
        "n": ci.n,
        "confidence": ci.confidence,
    }


def _accuracy(result: AccuracyResult) -> dict[str, Any]:
    return {
        "kind": "accuracy",
        "dataset": result.dataset,
        "window_size_ms": result.window_size_ms,
        "loss_fraction": result.loss_fraction,
        "quantiles": list(result.quantiles),
        "per_quantile": {
            sketch: {str(q): _ci(ci) for q, ci in errors.items()}
            for sketch, errors in result.per_quantile.items()
        },
        "grouped": result.grouped,
    }


def _speed(result: SpeedResult) -> dict[str, Any]:
    return {
        "kind": "speed",
        "operation": result.operation,
        "seconds_per_op": result.seconds_per_op,
        "iqr": result.iqr,
        "ranking": result.ranking(),
        "detail": result.detail,
    }


def _memory(result: MemoryResult) -> dict[str, Any]:
    return {
        "kind": "memory",
        "points": result.points,
        "kb": result.kb,
        "structure_sizes": result.buckets,
    }


def _profile(profile: DatasetProfile) -> dict[str, Any]:
    return {
        "kind": "dataset-profile",
        "name": profile.name,
        "stats": profile.stats,
        "histogram": profile.histogram.tolist(),
        "bin_edges": profile.bin_edges.tolist(),
    }


def _kurtosis(result: KurtosisResult) -> dict[str, Any]:
    return {
        "kind": "kurtosis-sweep",
        "labels": result.labels,
        "measured_kurtosis": result.measured_kurtosis,
        "errors": {
            label: {sketch: _ci(ci) for sketch, ci in by_sketch.items()}
            for label, by_sketch in result.errors.items()
        },
    }


def _late(result: LateDataResult) -> dict[str, Any]:
    return {
        "kind": "late-data",
        "delay_mean_ms": result.delay_mean_ms,
        "with_delay": {
            dataset: _accuracy(r)
            for dataset, r in result.with_delay.items()
        },
        "without_delay": {
            dataset: _accuracy(r)
            for dataset, r in result.without_delay.items()
        },
    }


def _window_size(result: WindowSizeResult) -> dict[str, Any]:
    return {
        "kind": "window-size",
        "results": {
            dataset: {
                str(size): _accuracy(r) for size, r in by_size.items()
            }
            for dataset, by_size in result.results.items()
        },
    }


def _summary(result: SummaryTable) -> dict[str, Any]:
    return {
        "kind": "summary",
        "approach": result.approach,
        "tail_accuracy": result.tail_accuracy,
        "nontail_accuracy": result.nontail_accuracy,
        "insertion": result.insertion,
        "query": result.query,
        "merge": result.merge,
        "adaptability": result.adaptability,
    }


def _related(result: RelatedWorkResult) -> dict[str, Any]:
    return {"kind": "related-work", "rows": result.rows}


def _size_sweep(result: SizeSweepResult) -> dict[str, Any]:
    return {
        "kind": "size-sweep",
        "curves": {
            sketch: [
                {"config": label, "bytes": size, "mean_rel_err": error}
                for label, size, error in curve
            ]
            for sketch, curve in result.curves.items()
        },
    }


_CONVERTERS = [
    (AccuracyResult, _accuracy),
    (SpeedResult, _speed),
    (MemoryResult, _memory),
    (DatasetProfile, _profile),
    (KurtosisResult, _kurtosis),
    (LateDataResult, _late),
    (WindowSizeResult, _window_size),
    (SummaryTable, _summary),
    (RelatedWorkResult, _related),
    (SizeSweepResult, _size_sweep),
]


def to_jsonable(result: Any) -> Any:
    """Convert any experiment result object to JSON-able data.

    Dictionaries and lists of results are converted recursively, so a
    ``{dataset: AccuracyResult}`` mapping exports directly.
    """
    for cls, converter in _CONVERTERS:
        if isinstance(result, cls):
            return converter(result)
    if isinstance(result, dict):
        return {str(key): to_jsonable(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [to_jsonable(item) for item in result]
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    raise ExperimentError(
        f"don't know how to export {type(result).__name__}"
    )


def write_json(result: Any, path: str | Path) -> Path:
    """Write *result* as pretty-printed JSON; returns the path.

    Published atomically (temp file + rename): a crash or a concurrent
    reader — CI collecting artifacts mid-run — sees the previous
    complete file or the new one, never a truncated hybrid.
    """
    text = json.dumps(to_jsonable(result), indent=2, sort_keys=True)
    return atomic_write_text(Path(path), text + "\n", durable=False)


def accuracy_csv_rows(result: AccuracyResult) -> list[dict[str, Any]]:
    """Flatten an accuracy result into one CSV row per (sketch, q)."""
    rows = []
    for sketch, errors in result.per_quantile.items():
        for q, ci in errors.items():
            rows.append({
                "dataset": result.dataset,
                "window_size_ms": result.window_size_ms,
                "sketch": sketch,
                "quantile": q,
                "mean_relative_error": ci.mean,
                "ci_half_width": ci.half_width,
                "runs": ci.n,
            })
    return rows


def speed_csv_rows(result: SpeedResult) -> list[dict[str, Any]]:
    """Flatten a speed result into one CSV row per sketch."""
    return [
        {
            "operation": result.operation,
            "sketch": sketch,
            "seconds_per_op": seconds,
            "iqr": result.iqr.get(sketch),
        }
        for sketch, seconds in result.seconds_per_op.items()
    ]


def write_csv(rows: list[dict[str, Any]], path: str | Path) -> Path:
    """Write flat dict rows as CSV, atomically; returns the path."""
    if not rows:
        raise ExperimentError("no rows to write")
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return atomic_write_text(Path(path), buffer.getvalue(), durable=False)
