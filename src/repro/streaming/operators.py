"""Window aggregate functions.

Mirrors the part of Flink's ``AggregateFunction`` contract the engine
uses: an accumulator is created per window pane, fed the pane's values
in arrival order by one ``add_batch``, and finalised into a result when
the window fires.

:class:`SketchAggregator` is the one the reproduction is about: the
accumulator is a quantile sketch, so a window's full value distribution
is summarised in constant space and queried once at firing time.
"""

from __future__ import annotations

import abc
from typing import Callable, Generic, Sequence, TypeVar

import numpy as np

from repro.core.base import QuantileSketch

AccT = TypeVar("AccT")
ResultT = TypeVar("ResultT")


class AggregateFunction(abc.ABC, Generic[AccT, ResultT]):
    """Window aggregation contract."""

    @abc.abstractmethod
    def create_accumulator(self) -> AccT:
        """Fresh accumulator for a new window pane."""

    @abc.abstractmethod
    def add_batch(self, accumulator: AccT, values: np.ndarray) -> AccT:
        """Fold a pane's values, in arrival order, into the accumulator."""

    @abc.abstractmethod
    def get_result(self, accumulator: AccT) -> ResultT:
        """Finalise the accumulator when the window fires."""


class SketchAggregator(AggregateFunction[QuantileSketch, dict[float, float]]):
    """Aggregates a window into a quantile sketch.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable building an empty sketch (e.g.
        ``lambda: DDSketch(alpha=0.01)`` or a
        :func:`repro.core.paper_config` partial).
    quantiles:
        Quantiles evaluated when the window fires; the result is a
        ``{q: estimate}`` dict.
    """

    def __init__(
        self,
        sketch_factory: Callable[[], QuantileSketch],
        quantiles: Sequence[float],
    ) -> None:
        self.sketch_factory = sketch_factory
        self.quantiles = tuple(quantiles)

    def create_accumulator(self) -> QuantileSketch:
        return self.sketch_factory()

    def add_batch(
        self, accumulator: QuantileSketch, values: np.ndarray
    ) -> QuantileSketch:
        accumulator.update_batch(values)
        return accumulator

    def get_result(self, accumulator: QuantileSketch) -> dict[float, float]:
        estimates = accumulator.quantiles(self.quantiles)
        return dict(zip(self.quantiles, estimates))


class CollectingAggregator(AggregateFunction[list, np.ndarray]):
    """Keeps every window value — the exact baseline for accuracy runs."""

    def create_accumulator(self) -> list:
        return []

    def add_batch(self, accumulator: list, values: np.ndarray) -> list:
        accumulator.append(np.asarray(values, dtype=np.float64))
        return accumulator

    def get_result(self, accumulator: list) -> np.ndarray:
        if not accumulator:
            return np.zeros(0)
        return np.sort(np.concatenate(accumulator))


class CountAggregator(AggregateFunction[int, int]):
    """Counts window events (used by tests and loss accounting)."""

    def create_accumulator(self) -> int:
        return 0

    def add_batch(self, accumulator: int, values: np.ndarray) -> int:
        return accumulator + int(np.asarray(values).size)

    def get_result(self, accumulator: int) -> int:
        return accumulator
