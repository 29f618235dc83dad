"""Fig 5b — quantile computation time vs number of entries processed.

Each sketch is pre-filled from the Pareto stream and timed answering
the paper's full quantile set.  Published shape: Moments Sketch worst
(solver-bound, size-independent); DDSketch/UDDSketch fast and
size-independent once the bucket range saturates; KLL fast; REQ grows
sub-linearly with data size as more compactors must be sorted.
"""

import pytest

from repro.experiments.config import DEFAULT_SKETCHES
from repro.experiments.speed import measure_query
from repro.metrics.errors import PAPER_QUANTILES

#: Fill sizes swept per sketch; the paper sweeps 10k .. 1B.
FILL_SIZES = (10_000, 100_000)


@pytest.mark.parametrize("sketch_name", DEFAULT_SKETCHES)
@pytest.mark.parametrize("fill_size", FILL_SIZES)
def bench_query(sketch_name, fill_size, scale):
    size = min(fill_size, scale.speed_points)
    results = measure_query((sketch_name,), data_sizes=(size,), scale=scale)
    estimates = results[size].detail[sketch_name]["estimates"]
    assert len(estimates) == len(PAPER_QUANTILES)
    assert estimates == sorted(estimates)
