"""Fig 5c — average time to merge two sketches.

Sketches are pre-filled from the paper's three merge workloads
(U(30,100), binomial(100, 0.2), Zipf(20, 0.6)) and folded sequentially
into an accumulator; the reported figure is time per merge operation.
Published shape: Moments Sketch fastest by an order of magnitude
(vector addition); DDSketch next; KLL, REQ and UDDSketch slowest.
"""

import pytest

from repro.core.registry import PAPER_SKETCHES
from repro.experiments.speed import measure_merge

#: Number of sketches folded per measurement; the paper uses 100/1000.
MERGE_COUNTS = (20,)


@pytest.mark.parametrize("sketch_name", PAPER_SKETCHES)
@pytest.mark.parametrize("num_sketches", MERGE_COUNTS)
def bench_merge(sketch_name, num_sketches, scale):
    result = measure_merge(
        (sketch_name,), num_sketches=num_sketches, scale=scale
    )
    expected = num_sketches * scale.merge_prefill
    assert result.detail[sketch_name]["merged_count"] == expected
