"""Table 3 — final memory usage of each sketch after consuming the
four data sets.

Published shape: Moments Sketch 0.14 KB everywhere; KLL constant across
data sets; DDSketch a few KB tracking the data range; UDDSketch largest
(map-based store); everything under 30 KB.
"""

from benchmarks.conftest import emit
from repro.experiments.memory import measure_memory


def bench_table3_memory(scale):
    result = measure_memory(scale=scale)
    emit(result.to_table())

    for dataset, by_sketch in result.kb.items():
        # Moments is tiny and constant.
        assert by_sketch["moments"] < 0.2, dataset
        # The map-based UDDSketch tops every row.
        assert by_sketch["uddsketch"] == max(by_sketch.values()), dataset
        # Sec 4.3: everything under 0.03 MB.
        assert all(kb < 30.0 for kb in by_sketch.values()), dataset
    # KLL's retained sample is data-independent.
    kll_sizes = [by_sketch["kll"] for by_sketch in result.kb.values()]
    assert max(kll_sizes) - min(kll_sizes) < 0.5
