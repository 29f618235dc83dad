"""Sec 4.6 — accuracy with late-arriving data dropped.

Events reach the engine after an exponential network delay (mean
150 ms); windows fire on the watermark and late events are dropped.
Published shape: a small per-window loss, slightly higher errors than
the ideal-network runs, but the same qualitative analysis — a sketch
with an accurate summary is not significantly affected by missing a
small percentage of data.
"""

from benchmarks.conftest import emit
from repro.experiments.late_data import run_late_data

DATASETS = ("pareto", "uniform")


def bench_sec46_late_data(scale):
    result = run_late_data(datasets=DATASETS, scale=scale)
    emit(result.to_table())

    for dataset in DATASETS:
        delayed = result.with_delay[dataset]
        ideal = result.without_delay[dataset]
        # The delay model must actually drop events...
        assert delayed.loss_fraction > 0.0
        assert ideal.loss_fraction == 0.0
        # ...while losing only a small share of each stream.
        assert delayed.loss_fraction < 0.10
        # Core analysis unchanged: relative-error sketches stay
        # within (twice) their guarantee despite the loss.
        assert delayed.grouped["ddsketch"]["mid"] < 0.02
        assert delayed.grouped["uddsketch"]["mid"] < 0.02
