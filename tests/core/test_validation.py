"""Tests for the sketch conformance checker."""

import pytest

from repro.core import SKETCH_CLASSES, DDSketch, KLLSketch, paper_config
from repro.core.base import NO_GUARANTEE, Guarantee, QuantileSketch
from repro.core.validation import check_conformance
from repro.errors import EmptySketchError

#: Sketches checkable on an unbounded uniform stream.  GK's per-item
#: insert is too slow for the default n; DCS needs a bounded universe
#: (checked separately with a fitting value_range).
CHECKED = sorted(set(SKETCH_CLASSES) - {"gk", "dcs"})


class TestLibrarySketchesConform:
    @pytest.mark.parametrize("name", CHECKED)
    def test_every_sketch_passes(self, name):
        report = check_conformance(
            lambda: paper_config(name, seed=1), n=20_000
        )
        assert report.ok, "\n" + str(report)
        # A stated bound is checked as stated: tighter than the 0.05
        # rank budget the unguaranteed sketches get.
        guarantee = paper_config(name).guarantee()
        assert guarantee.kind == "none" or guarantee.eps < 0.05

    def test_gk_passes_at_reduced_size(self):
        report = check_conformance(
            lambda: paper_config("gk"), n=3_000
        )
        assert report.ok, "\n" + str(report)

    def test_dcs_passes_inside_its_universe(self):
        # DCS floors values to its integer universe, so raw-stream
        # min/max tracking deviates by design; every behavioural check
        # must still pass on a wide range.
        report = check_conformance(
            lambda: paper_config("dcs", seed=1),
            n=20_000,
            value_range=(0.0, float((1 << 20) - 1)),
            skip={"count/min/max bookkeeping"},
        )
        assert report.ok, "\n" + str(report)


class TestCheckerCatchesBrokenSketches:
    def test_flags_biased_quantiles(self):
        class Biased(QuantileSketch):
            """Always answers the maximum."""

            def update(self, value):
                self._observe(float(value))

            def merge(self, other):
                self._merge_bookkeeping(other)

            def quantile(self, q):
                self._require_nonempty()
                return self._max

            def size_bytes(self):
                return 24

            def guarantee(self):
                return NO_GUARANTEE

        report = check_conformance(Biased, n=2_000)
        assert not report.ok
        failed = {check.name for check in report.failures}
        assert "accuracy budget" in failed

    @pytest.mark.parametrize("base, claim", [
        (KLLSketch, Guarantee("rank", 1e-4)),
        (DDSketch, Guarantee("relative", 1e-4)),
    ])
    def test_holds_a_sketch_to_its_own_guarantee(self, base, claim):
        class Overclaiming(base):
            def guarantee(self):
                return claim

        report = check_conformance(Overclaiming, n=5_000)
        failed = {check.name for check in report.failures}
        assert failed == {"accuracy budget", "merge equals concatenation"}

    def test_flags_broken_count(self):
        class MiscountingDD(QuantileSketch):
            def __init__(self):
                super().__init__()
                from repro.core import DDSketch
                self._inner = DDSketch()

            def update(self, value):
                self._inner.update(value)
                self._observe(float(value))
                self._count += 1  # double counting bug

            def merge(self, other):
                self._inner.merge(other._inner)
                self._merge_bookkeeping(other)

            def quantile(self, q):
                return self._inner.quantile(q)

            def size_bytes(self):
                return self._inner.size_bytes()

            def guarantee(self):
                return self._inner.guarantee()

        report = check_conformance(MiscountingDD, n=1_000)
        assert not report.ok
        failed = {check.name for check in report.failures}
        assert "count/min/max bookkeeping" in failed

    def test_flags_empty_sketch_that_answers(self):
        class NeverEmpty(QuantileSketch):
            def update(self, value):
                self._observe(float(value))

            def merge(self, other):
                self._merge_bookkeeping(other)

            def quantile(self, q):
                return 0.0  # answers even when empty

            def size_bytes(self):
                return 8

            def guarantee(self):
                return NO_GUARANTEE

        report = check_conformance(NeverEmpty, n=1_000)
        failed = {check.name for check in report.failures}
        assert "empty-sketch behaviour" in failed

    def test_report_renders(self):
        from repro.core import DDSketch

        report = check_conformance(DDSketch, n=2_000)
        text = str(report)
        assert "[PASS]" in text
        assert report.failures == []
