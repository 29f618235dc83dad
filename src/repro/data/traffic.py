"""Seeded traffic-shape generators for service-level workloads.

The paper's generators (:mod:`repro.data.distributions`) model *value*
distributions; this module models *traffic* — who sends how much, when:

* :class:`ZipfTenants` — a skewed tenant population ("hot tenant"
  traffic): tenant *i* of *n* receives share ``i^-s`` of the offered
  load, the standard model for multi-tenant monitoring backends where
  a handful of services dominate write volume.
* :class:`DiurnalCurve` — a day-shaped offered-load curve: a raised
  cosine between a trough and a peak rate over a configurable period,
  evaluated at integer ticks so two runs offer byte-identical load.
* :class:`FlashCrowd` — a multiplicative spike layered over any base
  curve for a bounded tick window (launch events, cache stampedes).
* :class:`LatencyValues` — the canonical service-latency value model
  (lognormal ``(4.6, 0.5)``), with a per-call scale knob so a scenario
  can degrade one tenant or one time window.

Everything here is a pure function of its parameters and the supplied
``numpy.random.Generator`` — no global state, no wall clock — which is
what lets the traffic simulator (:mod:`repro.workload`) assert that two
runs with one seed produce identical SLO reports.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidValueError


class ZipfTenants:
    """A Zipf-skewed population of tenant metric names.

    Tenant rank *i* (0-based) carries weight ``(i + 1) ** -exponent``;
    ``exponent=0`` degenerates to a uniform population.  Names are
    ``{prefix}{i:02d}`` so listings sort in rank order.
    """

    def __init__(
        self,
        n_tenants: int = 8,
        exponent: float = 1.1,
        prefix: str = "lat.tenant",
    ) -> None:
        if n_tenants < 1:
            raise InvalidValueError(
                f"n_tenants must be >= 1, got {n_tenants!r}"
            )
        if exponent < 0:
            raise InvalidValueError(
                f"exponent must be >= 0, got {exponent!r}"
            )
        self.n_tenants = int(n_tenants)
        self.exponent = float(exponent)
        self.prefix = str(prefix)
        ranks = np.arange(1, self.n_tenants + 1, dtype=np.float64)
        weights = ranks ** -self.exponent
        self._shares = weights / weights.sum()
        self.names = tuple(
            f"{self.prefix}{index:02d}" for index in range(self.n_tenants)
        )

    def share(self, tenant: int) -> float:
        """Expected fraction of traffic tenant *tenant* receives."""
        return float(self._shares[tenant])

    def name_of(self, tenant: int) -> str:
        return self.names[tenant]

    def pick(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* tenant indices with the population's skew."""
        return rng.choice(self.n_tenants, size=n, p=self._shares)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ZipfTenants n={self.n_tenants} s={self.exponent:g} "
            f"prefix={self.prefix!r}>"
        )


class DiurnalCurve:
    """Raised-cosine offered load: trough-to-peak over one period.

    ``batches_at(tick)`` is the integer number of request batches to
    offer during *tick*; the continuous ``level_at`` underneath is

    ``base + (peak - base) * (1 + cos(2π (tick - peak_tick)/period)) / 2``

    so the curve tops out at *peak_tick* and bottoms out half a period
    away — a compressed "day" when ``period=24`` and one tick stands in
    for one hour.
    """

    def __init__(
        self,
        base: float = 2.0,
        peak: float = 8.0,
        period: int = 24,
        peak_tick: int = 18,
    ) -> None:
        if period < 1:
            raise InvalidValueError(f"period must be >= 1, got {period!r}")
        if peak < base:
            raise InvalidValueError(
                f"peak must be >= base, got peak={peak!r} base={base!r}"
            )
        if base < 0:
            raise InvalidValueError(f"base must be >= 0, got {base!r}")
        self.base = float(base)
        self.peak = float(peak)
        self.period = int(period)
        self.peak_tick = int(peak_tick)

    def level_at(self, tick: int) -> float:
        phase = 2.0 * math.pi * (tick - self.peak_tick) / self.period
        return self.base + (self.peak - self.base) * (
            1.0 + math.cos(phase)
        ) / 2.0

    def batches_at(self, tick: int) -> int:
        return int(round(self.level_at(tick)))


class FlashCrowd:
    """A bounded multiplicative spike over a base curve.

    For ticks in ``[at, at + length)`` the base curve's level is
    multiplied by *multiplier*; outside the window the base curve is
    returned untouched.  Stacks: a ``FlashCrowd`` can wrap another
    ``FlashCrowd`` to model overlapping incidents.
    """

    def __init__(
        self,
        base: "DiurnalCurve | FlashCrowd",
        at: int,
        length: int,
        multiplier: float,
    ) -> None:
        if at < 0:
            raise InvalidValueError(f"at must be >= 0, got {at!r}")
        if length < 1:
            raise InvalidValueError(f"length must be >= 1, got {length!r}")
        if multiplier <= 0:
            raise InvalidValueError(
                f"multiplier must be > 0, got {multiplier!r}"
            )
        self.base = base
        self.at = int(at)
        self.length = int(length)
        self.multiplier = float(multiplier)

    def in_spike(self, tick: int) -> bool:
        return self.at <= tick < self.at + self.length

    def level_at(self, tick: int) -> float:
        level = self.base.level_at(tick)
        if self.in_spike(tick):
            level *= self.multiplier
        return level

    def batches_at(self, tick: int) -> int:
        return int(round(self.level_at(tick)))


#: ``(mean, sigma)`` of the log of a latency in milliseconds.
LATENCY_LOGNORMAL = (4.6, 0.5)


class LatencyValues:
    """The canonical latency-like value model: lognormal milliseconds.

    :data:`LATENCY_LOGNORMAL` puts the median near ``e^4.6 ≈ 100 ms``
    with a heavy right tail — the parameterisation the service and
    cluster benchmarks have always drawn inline.  *scale* multiplies a
    whole batch, which is how scenarios model a degraded tenant or a
    slow time window without touching the RNG draw sequence.
    """

    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> np.ndarray:
        if n < 1:
            raise InvalidValueError(f"n must be >= 1, got {n!r}")
        if scale <= 0:
            raise InvalidValueError(f"scale must be > 0, got {scale!r}")
        values = rng.lognormal(*LATENCY_LOGNORMAL, n)
        if scale != 1.0:
            values = values * scale
        return values
