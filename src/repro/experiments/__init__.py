"""Experiment harness: one runner per table/figure of the paper.

See DESIGN.md for the experiment index.  Run from the command line with
``python -m repro.experiments <exp-id>`` or through the benchmarks in
``benchmarks/``.
"""

from repro.experiments.accuracy import (
    AccuracyResult,
    run_accuracy,
    run_adaptability,
)
from repro.experiments.config import (
    BASE_SEED,
    SCALES,
    ExperimentScale,
    current_scale,
)
from repro.experiments.datasets import (
    DatasetProfile,
    profile_datasets,
    profiles_table,
)
from repro.experiments.kurtosis_sweep import KurtosisResult, run_kurtosis_sweep
from repro.experiments.late_data import LateDataResult, run_late_data
from repro.experiments.memory import MemoryResult, measure_memory
from repro.experiments.related_work import (
    RelatedWorkResult,
    run_related_work,
)
from repro.experiments.reporting import format_seconds, format_table
from repro.experiments.size_sweep import SizeSweepResult, run_size_sweep
from repro.experiments.speed import (
    SpeedResult,
    measure_insertion,
    measure_merge,
    measure_query,
)
from repro.experiments.summary import SummaryTable, build_summary
from repro.experiments.window_size import WindowSizeResult, run_window_size

__all__ = [
    "AccuracyResult",
    "run_accuracy",
    "run_adaptability",
    "ExperimentScale",
    "SCALES",
    "current_scale",
    "BASE_SEED",
    "DatasetProfile",
    "profile_datasets",
    "profiles_table",
    "KurtosisResult",
    "run_kurtosis_sweep",
    "LateDataResult",
    "run_late_data",
    "MemoryResult",
    "measure_memory",
    "RelatedWorkResult",
    "run_related_work",
    "SizeSweepResult",
    "run_size_sweep",
    "SpeedResult",
    "measure_insertion",
    "measure_query",
    "measure_merge",
    "SummaryTable",
    "build_summary",
    "WindowSizeResult",
    "run_window_size",
    "format_table",
    "format_seconds",
]
