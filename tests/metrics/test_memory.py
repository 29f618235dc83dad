"""Unit tests for memory accounting."""

import pytest

from repro.core import DDSketch, MomentsSketch
from repro.metrics.memory import sketch_size_kb


class TestSketchSizeKB:
    def test_moments_is_tiny(self, rng):
        # Table 3: Moments Sketch is 0.14 KB regardless of data.
        sketch = MomentsSketch(num_moments=12)
        sketch.update_batch(rng.uniform(1, 10, 100_000))
        assert sketch_size_kb(sketch) == pytest.approx(0.14, abs=0.03)

    def test_kb_conversion(self, rng):
        sketch = DDSketch()
        sketch.update_batch(rng.uniform(1, 10, 1_000))
        assert sketch_size_kb(sketch) == sketch.size_bytes() / 1000.0

