"""Memory accounting for sketches (the Table 3 measurement).

Sketch footprints are reported through each sketch's ``size_bytes()``,
which counts the numeric payload the data structure retains (8 bytes per
double/long, 4 bytes per float sample where the reference implementation
stores floats).  This matches the paper's Sec 4.3 analysis, which counts
"the numerical size of each of the sketches" rather than language-level
object overhead — the figure that is comparable across Java and Python.
"""

from __future__ import annotations

from repro.core.base import QuantileSketch


def sketch_size_kb(sketch: QuantileSketch) -> float:
    """Footprint of *sketch* in kilobytes, Table 3 style."""
    return sketch.size_bytes() / 1000.0

