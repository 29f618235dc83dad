"""Conformance checking for quantile-sketch implementations.

:func:`check_conformance` runs a battery of black-box checks against
any :class:`~repro.core.base.QuantileSketch` factory — the contract
every sketch in this library honours and that a downstream user adding
their own sketch should verify:

* basic bookkeeping (count, min/max, empty-sketch errors);
* quantile sanity (monotone in q, inside the observed range);
* accuracy against exact quantiles, within the sketch's own
  :meth:`~repro.core.base.QuantileSketch.guarantee`: relative value
  error for a ``relative`` bound, rank error for a ``rank`` one, and
  :data:`UNGUARANTEED_RANK_BUDGET` for any other;
* merge-equals-concatenation within twice that;
* serialization round-trip (skipped when the sketch has no codec).

Returns a :class:`ConformanceReport` listing each check's outcome
rather than raising, so callers can assert on ``report.ok`` or inspect
individual failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.base import QuantileSketch
from repro.errors import EmptySketchError, ReproError, SerializationError

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

#: Rank error allowed a sketch whose guarantee is ``none``, or
#: ``relative_rank``, whose bound depends on the end the sketch favours.
UNGUARANTEED_RANK_BUDGET = 0.05


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


@dataclass
class ConformanceReport:
    """Outcome of every conformance check."""

    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[CheckOutcome]:
        return [check for check in self.checks if not check.passed]

    def __str__(self) -> str:
        return "\n".join(str(check) for check in self.checks)


def check_conformance(
    factory: Callable[[], QuantileSketch],
    n: int = 20_000,
    seed: int = 0,
    value_range: tuple[float, float] = (1.0, 1_000.0),
    skip: set[str] | frozenset[str] = frozenset(),
) -> ConformanceReport:
    """Run the conformance battery against *factory*'s sketches.

    Each sketch is held to its own :meth:`guarantee` at every checked
    quantile (see the module docstring).  *value_range* bounds the
    uniform test stream, letting domain-restricted sketches (e.g. a
    bounded-universe DCS) be tested inside their domain.  *skip* names
    checks to leave out for sketches that deviate from the contract by
    design (e.g. DCS floors values, so its min/max reflect the floored
    stream).
    """
    report = ConformanceReport()
    rng = np.random.default_rng(seed)
    lo, hi = value_range
    data = rng.uniform(lo, hi, n)
    sorted_data = np.sort(data)

    def record(name: str, fn: Callable[[], str | None]) -> None:
        if name in skip:
            return
        try:
            detail = fn()
        except ReproError as error:
            report.checks.append(
                CheckOutcome(name, False, f"{type(error).__name__}: {error}")
            )
        except Exception as error:  # noqa: BLE001 - black-box probe
            report.checks.append(
                CheckOutcome(
                    name, False,
                    f"unexpected {type(error).__name__}: {error}",
                )
            )
        else:
            report.checks.append(CheckOutcome(name, True, detail or ""))

    def empty_behaviour() -> None:
        sketch = factory()
        if not sketch.is_empty or sketch.count != 0:
            raise AssertionError("fresh sketch is not empty")
        try:
            sketch.quantile(0.5)
        except EmptySketchError:
            return
        raise AssertionError("empty quantile() did not raise")

    record("empty-sketch behaviour", empty_behaviour)

    sketch = factory()
    sketch.update_batch(data)

    def bookkeeping() -> str:
        if sketch.count != n:
            raise AssertionError(
                f"count {sketch.count} != stream length {n}"
            )
        if sketch.min != sorted_data[0] or sketch.max != sorted_data[-1]:
            raise AssertionError("min/max do not match the stream")
        return f"count={sketch.count}"

    record("count/min/max bookkeeping", bookkeeping)

    def monotone() -> None:
        estimates = sketch.quantiles(np.linspace(0.01, 1.0, 25))
        if any(
            a > b + 1e-9 for a, b in zip(estimates, estimates[1:])
        ):
            raise AssertionError("quantile estimates not monotone in q")

    record("quantiles monotone", monotone)

    def in_range() -> None:
        for q in (0.001, 0.5, 1.0):
            estimate = sketch.quantile(q)
            if not sorted_data[0] <= estimate <= sorted_data[-1]:
                raise AssertionError(
                    f"q={q} estimate {estimate} outside observed range"
                )

    record("estimates within observed range", in_range)

    def worst_error(estimator: QuantileSketch) -> tuple[str, float, float]:
        """The measured kind, the worst error over the checked
        quantiles and the bound the sketch's guarantee sets on it."""
        guarantee = estimator.guarantee()
        kind, bound = guarantee.kind, guarantee.eps
        if kind not in ("relative", "rank"):
            kind, bound = "rank", UNGUARANTEED_RANK_BUDGET
        worst = 0.0
        for q in DEFAULT_QUANTILES:
            estimate = estimator.quantile(q)
            if kind == "relative":
                true = sorted_data[max(math.ceil(q * n), 1) - 1]
                error = abs(estimate - true) / abs(true)
            else:
                realised = np.searchsorted(
                    sorted_data, estimate, side="right"
                ) / n
                error = abs(realised - q)
            worst = max(worst, float(error))
        return kind, worst, bound

    def accuracy() -> str:
        kind, worst, bound = worst_error(sketch)
        if worst > bound + 1e-9:
            raise AssertionError(
                f"{kind} error {worst:.4f} exceeds budget {bound:.4g}"
            )
        return f"worst {kind} error {worst:.4f} (budget {bound:.4g})"

    record("accuracy budget", accuracy)

    def merge_consistency() -> str:
        half = n // 2
        left = factory()
        right = factory()
        left.update_batch(data[:half])
        right.update_batch(data[half:])
        left.merge(right)
        if left.count != n:
            raise AssertionError("merged count wrong")
        kind, worst, bound = worst_error(left)
        if worst > 2 * bound + 1e-9:
            raise AssertionError(
                f"merged {kind} error {worst:.4f} exceeds merge budget "
                f"{2 * bound:.4g}"
            )
        return f"worst merged {kind} error {worst:.4f}"

    record("merge equals concatenation", merge_consistency)

    def serialization() -> str:
        from repro.core.serialization import dumps, loads

        try:
            payload = dumps(sketch)
        except SerializationError:
            return "no codec registered (skipped)"
        restored = loads(payload)
        if restored.count != sketch.count:
            raise AssertionError("round-trip lost the count")
        for q in (0.25, 0.5, 0.9):
            if not math.isclose(
                restored.quantile(q), sketch.quantile(q),
                rel_tol=1e-9,
            ):
                raise AssertionError(
                    f"round-trip changed the q={q} estimate"
                )
        return f"{len(payload)} bytes"

    record("serialization round-trip", serialization)
    return report
