"""Data-set family ordered by tail weight for the Fig 7 experiment.

Kurtosis measures how heavy a distribution's tail is relative to a
normal distribution (Sec 2.3; the paper uses *excess* kurtosis, so the
normal sits at 0).  Fig 7 plots the 0.98-quantile error of every sketch
against the kurtosis of the data set; this module provides the ordered
suite of workloads that sweep the x-axis, from the tail-free uniform to
the extremely long-tailed Pareto.  The kurtosis itself is
:func:`repro.metrics.stats.excess_kurtosis`, re-exported here.
"""

from __future__ import annotations

from repro.data.distributions import (
    Distribution,
    DriftingPareto,
    DriftingUniform,
    Gamma,
    Lognormal,
    Normal,
)
from repro.data.realworld import NYTFares, PowerConsumption
from repro.metrics.stats import excess_kurtosis

__all__ = ["excess_kurtosis", "kurtosis_suite"]


def kurtosis_suite() -> list[tuple[str, Distribution, float]]:
    """Workloads ordered by nominal excess kurtosis.

    Returns ``(label, distribution, nominal_kurtosis)`` triples.  The
    nominal values are the theoretical kurtosis of the undrifted
    distribution (or a measured long-run value for the synthetic
    real-world sets); experiments should report the empirical kurtosis
    of the actual sample via :func:`excess_kurtosis`.
    """
    return [
        ("uniform", DriftingUniform(), -1.2),
        ("normal", Normal(50.0, 10.0), 0.0),
        ("gamma", Gamma(2.0, 10.0), 3.0),
        ("power", PowerConsumption(), 7.0),
        ("nyt", NYTFares(), 40.0),
        ("lognormal", Lognormal(0.0, 1.0), 110.9),
        ("pareto", DriftingPareto(), 5000.0),
    ]
