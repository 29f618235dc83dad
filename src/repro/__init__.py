"""repro — quantile sketches over data streams.

A from-scratch Python reproduction of "An Experimental Analysis of
Quantile Sketches over Data Streams" (EDBT 2023): the five evaluated
sketches (KLL, Moments, DDSketch, UDDSketch, REQ), baselines, a
miniature event-time stream-processing engine, the study's workloads,
and a benchmark harness regenerating every table and figure.

Quickstart::

    from repro import DDSketch

    sketch = DDSketch(alpha=0.01)
    sketch.update_batch(latencies)
    p99 = sketch.quantile(0.99)
"""

from repro.core import (
    CountSketch,
    DDSketch,
    DyadicCountSketch,
    ExactQuantiles,
    GKArray,
    GKSketch,
    HdrHistogram,
    KLLSketch,
    MomentsSketch,
    QuantileSketch,
    RandomSketch,
    ReqSketch,
    TDigest,
    UDDSketch,
    dumps,
    loads,
    make_sketch,
    paper_config,
)
from repro.errors import ReproError, SketchError

__version__ = "1.0.0"

__all__ = [
    "QuantileSketch",
    "KLLSketch",
    "MomentsSketch",
    "DDSketch",
    "UDDSketch",
    "ReqSketch",
    "ExactQuantiles",
    "TDigest",
    "GKSketch",
    "GKArray",
    "HdrHistogram",
    "RandomSketch",
    "CountSketch",
    "DyadicCountSketch",
    "make_sketch",
    "paper_config",
    "dumps",
    "loads",
    "ReproError",
    "SketchError",
    "__version__",
]
