"""Fig 5b — quantile computation time vs number of entries processed.

Each sketch is pre-filled from the Pareto stream and timed answering
the paper's full quantile set.  Published shape: Moments Sketch worst
(solver-bound, size-independent); DDSketch/UDDSketch fast and
size-independent once the bucket range saturates; KLL fast; REQ grows
sub-linearly with data size as more compactors must be sorted.
"""

import pytest

from repro.core import paper_config
from repro.experiments.config import DEFAULT_SKETCHES
from repro.metrics.errors import PAPER_QUANTILES

#: Fill sizes swept per sketch; the paper sweeps 10k .. 1B.
FILL_SIZES = (10_000, 100_000)


@pytest.mark.parametrize("sketch_name", DEFAULT_SKETCHES)
@pytest.mark.parametrize("fill_size", FILL_SIZES)
def bench_query(benchmark, sketch_name, fill_size, speed_values):
    values = speed_values[: min(fill_size, speed_values.size)]
    sketch = paper_config(sketch_name, dataset="pareto", seed=0)
    sketch.update_batch(values)

    def query_all():
        sketch._drop_query_caches()
        return sketch.quantiles(PAPER_QUANTILES)

    estimates = benchmark(query_all)
    assert len(estimates) == len(PAPER_QUANTILES)
    assert estimates == sorted(estimates)
    benchmark.extra_info["fill_size"] = int(values.size)
