# module: repro.core.badsketch
"""Known-bad: incomplete interface, missing bookkeeping, unregistered."""
from repro.core.base import QuantileSketch, WeightedSampleSketch


class BadSketch(QuantileSketch):  # expect: SK001,SK003
    """Missing merge/size_bytes; update never observes; unregistered."""

    name = "bad"

    def update(self, value):  # expect: SK002
        self._items.append(value)

    def update_batch(self, values):
        for value in values:  # expect: SK004
            self.update(value)

    def quantile(self, q):
        return 0.0


class BadSampleSketch(WeightedSampleSketch):  # expect: SK001,SK003
    """A weighted-sample sketch is still a sketch: own quantile missing."""

    name = "bad_sample"

    def update(self, value):
        self._observe(value)

    def merge(self, other):
        self._merge_bookkeeping(other)

    def size_bytes(self):
        return 0

    def _live_run(self):
        return []

    def _sealed_runs(self):
        return []
