"""Quantile sketches: the five algorithms the paper evaluates plus the
baselines its related-work section discusses.

Public entry points:

* the sketch classes — :class:`KLLSketch`, :class:`MomentsSketch`,
  :class:`DDSketch`, :class:`UDDSketch`, :class:`ReqSketch`, and the
  baselines :class:`ExactQuantiles`, :class:`TDigest`, :class:`GKSketch`;
* :func:`make_sketch` / :func:`paper_config` factories;
* :func:`dumps` / :func:`loads` binary serialization.
"""

from repro.core.base import QuantileSketch
from repro.core.countsketch import CountSketch
from repro.core.dcs import DyadicCountSketch
from repro.core.ddsketch import DDSketch
from repro.core.exact import ExactQuantiles
from repro.core.gk import GKSketch
from repro.core.gkarray import GKArray
from repro.core.hdr import HdrHistogram
from repro.core.kll import KLLSketch
from repro.core.mapping import LogarithmicMapping, initial_alpha
from repro.core.maxent import MaxEntropySolver, MaxEntSolution
from repro.core.moments import MomentsSketch
from repro.core.random_sketch import RandomSketch
from repro.core.registry import (
    BASELINE_SKETCHES,
    PAPER_SKETCHES,
    SKETCH_CLASSES,
    make_sketch,
    paper_config,
)
from repro.core.req import ReqSketch
from repro.core.serialization import dumps, loads
from repro.core.store import (
    BucketStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)
from repro.core.tdigest import TDigest
from repro.core.uddsketch import UDDSketch
from repro.core.validation import (
    CheckOutcome,
    ConformanceReport,
    check_conformance,
)

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
    "LogarithmicMapping",
    "initial_alpha",
    "MaxEntropySolver",
    "MaxEntSolution",
    "BucketStore",
    "DenseStore",
    "CollapsingLowestDenseStore",
    "SparseStore",
    "SKETCH_CLASSES",
    "PAPER_SKETCHES",
    "BASELINE_SKETCHES",
    "make_sketch",
    "paper_config",
    "dumps",
    "loads",
    "check_conformance",
    "ConformanceReport",
    "CheckOutcome",
]
