"""Sec 4.7 — sensitivity of accuracy to the window size.

The accuracy runs are repeated with three window sizes.  Published
shape: synthetic data sets are insensitive; DD/UDD consistent
everywhere; on real-world data Moments improves with larger windows
(the observed shape smooths out) while the sampling sketches drift
slightly worse (more compactions).
"""

from benchmarks.conftest import emit
from repro.experiments.window_size import run_window_size

DATASETS = ("uniform", "power")


def bench_sec47_window_size(scale):
    # Window sizes scale with the configured window so the smoke/quick
    # scales sweep a proportional range (the paper uses 5/10/20 s).
    base_s = scale.window_size_ms / 1000.0
    sizes = (base_s / 4, base_s / 2, base_s)
    result = run_window_size(
        datasets=DATASETS, scale=scale, window_sizes_s=sizes
    )
    emit(result.to_table())

    for dataset in DATASETS:
        # DD/UDD: consistent across window sizes.
        assert abs(result.trend(dataset, "ddsketch")) < 0.01, dataset
        assert abs(result.trend(dataset, "uddsketch")) < 0.01, dataset
    # Moments on the bimodal real-world stand-in: larger windows do
    # not hurt (the paper reports an improvement).
    assert result.trend("power", "moments") < 0.01
