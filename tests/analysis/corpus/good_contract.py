# module: repro.core.goodsketch
"""Known-good: full interface, delegated bookkeeping, abstract base."""
import abc

from repro.core.base import NO_GUARANTEE, QuantileSketch


class GoodSketch(QuantileSketch):
    name = "good"

    def update(self, value):
        self._observe(value)

    def merge(self, other):
        self._merge_bookkeeping(other)

    def quantile(self, q):
        return 0.0

    def size_bytes(self):
        return 0

    def guarantee(self):
        return NO_GUARANTEE


class DelegatingSketch(QuantileSketch):
    """update reaches _observe_batch through update_batch (DCS-style)."""

    name = "delegating"

    def update(self, value):
        self.update_batch([value])

    def update_batch(self, values):
        self._observe_batch(values)

    def merge(self, other):
        self._merge_bookkeeping(other)

    def quantile(self, q):
        return 0.0

    def size_bytes(self):
        return 0

    def guarantee(self):
        return NO_GUARANTEE


class AbstractVariant(QuantileSketch):
    """Declares abstract members, so the concrete-class rules skip it."""

    @abc.abstractmethod
    def update(self, value):
        ...
