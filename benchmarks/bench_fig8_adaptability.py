"""Fig 8 — adaptability: accuracy when the distribution changes from
binomial(30, 0.4) to uniform(30, 100) halfway through the stream.

Published shape: most quantiles unaffected for every sketch, but at
the 0.5 quantile — which sits exactly at the regime boundary — the
sampling sketches (KLL, REQ) and Moments Sketch jump while DDSketch
and UDDSketch stay stable.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments.accuracy import run_adaptability


def bench_fig8_adaptability(scale):
    result = run_adaptability(scale=scale)
    emit(result.to_table())

    per_quantile = result.per_quantile
    # DD/UDD stable at the boundary.
    assert per_quantile["ddsketch"][0.5].mean <= 0.0101
    assert per_quantile["uddsketch"][0.5].mean <= 0.0101
    # The boundary is where the damage concentrates for the others:
    # the worst mean error at q=0.5 across KLL/REQ/Moments dwarfs
    # DDSketch's.
    worst_boundary = max(
        per_quantile[name][0.5].mean for name in ("kll", "req", "moments")
    )
    assert worst_boundary > 5 * per_quantile["ddsketch"][0.5].mean
    # Away from the boundary everyone is fine (non-tail quantiles).
    for name, errors in per_quantile.items():
        off_boundary = np.mean([errors[0.25].mean, errors[0.75].mean])
        assert off_boundary < 0.1, name
