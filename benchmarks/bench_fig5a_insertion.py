"""Fig 5a — insertion time of a single element.

The paper pre-samples values from Pareto(1, 1) and measures the
per-element ``update`` cost.  The published ordering: DDSketch fastest;
Moments and KLL in the middle; ReqSketch and UDDSketch slowest (list
compaction and the map-based store respectively).  Absolute numbers are
CPython, not JVM; the ordering is the reproduced result.
"""

import pytest

from repro.core import paper_config
from repro.experiments.config import DEFAULT_SKETCHES
from repro.experiments.speed import measure_insertion


@pytest.mark.parametrize("sketch_name", DEFAULT_SKETCHES)
def bench_insertion(sketch_name, scale):
    result = measure_insertion((sketch_name,), scale=scale)
    assert result.detail[sketch_name]["count"] == scale.speed_points


@pytest.mark.parametrize("sketch_name", DEFAULT_SKETCHES)
def bench_insertion_batched(sketch_name, speed_values):
    """Companion check: the vectorised ingestion path (not in the
    paper) takes the whole stream; its speed against the scalar path is
    the benchmark's ``core.<sketch>.update_batch_values_per_s``."""
    sketch = paper_config(sketch_name, dataset="pareto", seed=0)
    sketch.update_batch(speed_values)
    assert sketch.count == speed_values.size
