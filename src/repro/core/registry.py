"""Sketch registry and paper-default factories.

:data:`SKETCHES` is the one table of sketch names: it maps each short
name used throughout the benchmark harness to its class, its role in
the evaluation (one of the paper's five, a Sec 5.2 baseline, or ground
truth) and its Sec 4.2 parameters. Every other list of names is built
from it.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Type

from repro.core.base import QuantileSketch
from repro.core.dcs import DyadicCountSketch
from repro.core.ddsketch import DDSketch
from repro.core.exact import ExactQuantiles
from repro.core.gk import GKSketch
from repro.core.gkarray import GKArray
from repro.core.hdr import HdrHistogram
from repro.core.kll import KLLSketch
from repro.core.moments import MomentsSketch
from repro.core.random_sketch import RandomSketch
from repro.core.req import ReqSketch
from repro.core.tdigest import TDigest
from repro.core.uddsketch import UDDSketch
from repro.errors import InvalidValueError


class SketchSpec(NamedTuple):
    """One registry row: class, role and paper parameters."""

    cls: Type[QuantileSketch]
    #: ``"paper"`` (Sec 4), ``"baseline"`` (Sec 5.2) or ``"truth"``.
    role: str
    #: Keyword arguments of the Sec 4.2 configuration.
    params: Mapping[str, object]
    #: Whether :func:`paper_config` passes its *seed* to the class.
    seeded: bool = False


#: Every sketch, in the paper's presentation order, then the baselines.
SKETCHES: dict[str, SketchSpec] = {
    "kll": SketchSpec(
        KLLSketch, "paper", {"max_compactor_size": 350}, seeded=True
    ),
    "moments": SketchSpec(
        MomentsSketch, "paper", {"num_moments": 12, "transform": "none"}
    ),
    "ddsketch": SketchSpec(
        DDSketch, "paper", {"alpha": 0.01, "store": "dense"}
    ),
    "uddsketch": SketchSpec(
        UDDSketch,
        "paper",
        {"final_alpha": 0.01, "num_collapses": 12, "max_buckets": 1024},
    ),
    "req": SketchSpec(
        ReqSketch, "paper", {"num_sections": 30, "hra": True}, seeded=True
    ),
    "tdigest": SketchSpec(TDigest, "baseline", {"compression": 100}),
    "gk": SketchSpec(GKSketch, "baseline", {"epsilon": 0.01}),
    "gkarray": SketchSpec(GKArray, "baseline", {"epsilon": 0.01}),
    "hdr": SketchSpec(HdrHistogram, "baseline", {"significant_digits": 2}),
    "random": SketchSpec(
        RandomSketch,
        "baseline",
        {"num_buffers": 8, "buffer_size": 128},
        seeded=True,
    ),
    "dcs": SketchSpec(
        DyadicCountSketch, "baseline", {"universe_log2": 20}, seeded=True
    ),
    "exact": SketchSpec(ExactQuantiles, "truth", {}),
}

SKETCH_CLASSES: dict[str, Type[QuantileSketch]] = {
    name: spec.cls for name, spec in SKETCHES.items()
}

#: The five sketches evaluated by the paper, in its presentation order.
PAPER_SKETCHES = tuple(
    name for name, spec in SKETCHES.items() if spec.role == "paper"
)

#: Extra baselines available to the harness (Sec 5.2's related
#: sketches plus ground truth).
BASELINE_SKETCHES = tuple(
    name for name, spec in SKETCHES.items() if spec.role != "paper"
)

#: Seed threaded into the randomized sketches (KLL, REQ, Random, DCS)
#: when :func:`paper_config` is called without one, so paper
#: configurations are reproducible by default; pass an explicit seed to
#: vary runs (the accuracy experiments pass ``BASE_SEED + run``).
DEFAULT_SEED = 2023

#: Data sets whose wide value range gets the log transform for Moments
#: Sketch, per Sec 4.2 ("we apply a log transformation to Pareto and
#: Power data sets"); lognormal joins them in the kurtosis sweep since
#: it spans as many orders of magnitude as Pareto.
LOG_TRANSFORM_DATASETS = frozenset({"pareto", "power", "lognormal"})


def _spec(name: str) -> SketchSpec:
    try:
        return SKETCHES[name]
    except KeyError:
        raise InvalidValueError(
            f"unknown sketch {name!r}; expected one of {sorted(SKETCHES)}"
        ) from None


def make_sketch(name: str, **params: object) -> QuantileSketch:
    """Instantiate a sketch by registry name with explicit parameters."""
    return _spec(name).cls(**params)  # type: ignore[arg-type]


def paper_config(
    name: str,
    dataset: str | None = None,
    seed: int | None = None,
) -> QuantileSketch:
    """Build a sketch with the paper's Sec 4.2 parameterisation.

    Parameters were chosen by the authors so the sketches have a similar
    memory footprint and ~1% rank or relative accuracy:

    * KLL: ``max_compactor_size = 350``
    * ReqSketch: ``num_sections = 30``, HRA on
    * DDSketch: unbounded dense store, ``alpha = 0.01``
    * UDDSketch: ``max_buckets = 1024``, ``num_collapses = 12``
    * Moments Sketch: ``num_moments = 12``; log transform when *dataset*
      is Pareto or Power.

    *seed* feeds the randomized sketches (KLL, REQ, Random, DCS) for
    reproducibility; when omitted it defaults to :data:`DEFAULT_SEED`
    so two unseeded calls build sketches that replay bit-identically.
    """
    spec = _spec(name)
    params = spec.params
    if spec.seeded:
        params = {**params, "seed": DEFAULT_SEED if seed is None else seed}
    if (
        name == "moments"
        and dataset is not None
        and dataset.lower() in LOG_TRANSFORM_DATASETS
    ):
        params = {**params, "transform": "log"}
    return spec.cls(**params)  # type: ignore[arg-type]
