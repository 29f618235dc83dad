"""Command-line entry point: ``python -m repro.experiments <exp-id>``.

Experiment ids follow the paper's tables/figures (see DESIGN.md):
``table3``, ``fig4``, ``fig5a``, ``fig5b``, ``fig5c``, ``fig6a`` ...
``fig6d``, ``fig7``, ``fig8``, ``late``, ``window``, ``table4``,
``related`` — or ``all`` to run everything at the current
``REPRO_SCALE``.  Pass ``--output DIR`` to also write each result as
``DIR/<exp-id>.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

from repro.experiments.accuracy import run_accuracy, run_adaptability
from repro.experiments.config import current_scale
from repro.experiments.datasets import profile_datasets, profiles_table
from repro.experiments.export import write_json
from repro.experiments.kurtosis_sweep import run_kurtosis_sweep
from repro.experiments.late_data import run_late_data
from repro.experiments.memory import measure_memory
from repro.experiments.related_work import run_related_work
from repro.experiments.size_sweep import run_size_sweep
from repro.experiments.speed import (
    measure_insertion,
    measure_merge,
    measure_query,
)
from repro.experiments.summary import build_summary
from repro.experiments.window_size import run_window_size

FIG6_DATASETS = {
    "fig6a": "pareto",
    "fig6b": "uniform",
    "fig6c": "nyt",
    "fig6d": "power",
}


def _run_table4() -> Any:
    accuracy = {
        d: run_accuracy(d) for d in ("pareto", "uniform", "nyt", "power")
    }
    queries = measure_query()
    largest = max(queries)
    return build_summary(
        accuracy=accuracy,
        insertion=measure_insertion(),
        query=queries[largest],
        merge=measure_merge(),
        adaptability=run_adaptability(),
    )


#: Experiment id -> runner returning the raw result object(s).
EXPERIMENTS: dict[str, Callable[[], Any]] = {
    "table3": measure_memory,
    "fig4": profile_datasets,
    "fig5a": measure_insertion,
    "fig5b": measure_query,
    "fig5c": measure_merge,
    "fig6a": lambda: run_accuracy("pareto"),
    "fig6b": lambda: run_accuracy("uniform"),
    "fig6c": lambda: run_accuracy("nyt"),
    "fig6d": lambda: run_accuracy("power"),
    "fig7": run_kurtosis_sweep,
    "fig8": run_adaptability,
    "late": run_late_data,
    "window": run_window_size,
    "table4": _run_table4,
    "related": run_related_work,
    "sweep": run_size_sweep,
}


def render(name: str, result: Any) -> str:
    """Render an experiment result as the paper-style text table,
    followed by an ASCII figure where the paper has one."""
    if name == "fig4":
        return profiles_table(result)
    if name == "fig5b":
        return "\n\n".join(r.to_table() for r in result.values())
    parts = [result.to_table()]
    if hasattr(result, "to_figure"):
        parts.append(result.to_figure())
    return "\n\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'An Experimental "
            "Analysis of Quantile Sketches over Data Streams' (EDBT "
            "2023). Scale is controlled by REPRO_SCALE "
            "(smoke|quick|paper)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="also write each result as DIR/<exp-id>.json",
    )
    args = parser.parse_args(argv)
    scale = current_scale()
    print(f"[repro] scale={scale.name} "
          f"({scale.events_per_window:,} events/window, "
          f"{scale.num_runs} runs)\n")
    names = (
        sorted(EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        result = EXPERIMENTS[name]()
        print(f"=== {name} ===")
        print(render(name, result))
        print()
        if args.output:
            path = write_json(result, Path(args.output) / f"{name}.json")
            print(f"[repro] wrote {path}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
