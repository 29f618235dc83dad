"""Fig 4 — histogram/PDF characterisation of the four data sets.

Numeric companion to the paper's plots: per-data-set summary statistics
and kurtosis.  Published shape: uniform flat (negative excess
kurtosis), Power bimodal, NYT heavily repeated with a long tail, Pareto
extremely long-tailed.
"""

from benchmarks.conftest import emit
from repro.experiments.datasets import profile_datasets, profiles_table


def bench_fig4_datasets(scale):
    profiles = profile_datasets(scale=scale)
    emit(profiles_table(profiles))

    assert profiles["uniform"].stats["kurtosis"] < 0
    assert profiles["pareto"].stats["kurtosis"] > 100
    assert len(profiles["power"].modes) >= 2
