"""Fig 7 — accuracy of the 0.98-quantile query as a function of the
kurtosis of the data.

Published shape: DDSketch (and UDDSketch within its collapse budget)
flat across the sweep; distribution-dependent sketches degrade as the
tail grows, with KLL worst on the Pareto end and REQ rescued by its
biased sampling.
"""

from benchmarks.conftest import emit
from repro.experiments.kurtosis_sweep import run_kurtosis_sweep


def bench_fig7_kurtosis(scale):
    result = run_kurtosis_sweep(scale=scale)
    emit(result.to_table())

    # The x-axis spans tail-free to extremely long-tailed.
    assert result.measured_kurtosis["uniform"] < 0
    assert result.measured_kurtosis["pareto"] > 100
    # DDSketch stable everywhere.
    for label in result.labels:
        assert result.errors[label]["ddsketch"].mean <= 0.0101, label
    # KLL degrades with kurtosis (uniform -> pareto).
    assert (
        result.errors["pareto"]["kll"].mean
        > result.errors["uniform"]["kll"].mean
    )
    # REQ beats KLL on the heavy-tailed end (biased retention).
    assert (
        result.errors["pareto"]["req"].mean
        < result.errors["pareto"]["kll"].mean
    )
