"""Tests for the Table 3 memory experiment (smoke scale)."""

import pytest

from repro.core.registry import PAPER_SKETCHES
from repro.experiments.config import SCALES
from repro.experiments.memory import measure_memory

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def result():
    return measure_memory(PAPER_SKETCHES, scale=SMOKE)


class TestMeasureMemory:
    def test_covers_all_datasets(self, result):
        assert set(result.kb) == {"pareto", "uniform", "nyt", "power"}

    def test_moments_constant_and_smallest(self, result):
        for dataset, by_sketch in result.kb.items():
            assert by_sketch["moments"] == pytest.approx(0.14, abs=0.03)
            assert by_sketch["moments"] == min(by_sketch.values()), dataset

    def test_uddsketch_largest(self, result):
        # Table 3: the map-based store tops every row.
        for dataset, by_sketch in result.kb.items():
            assert by_sketch["uddsketch"] == max(by_sketch.values()), dataset

    def test_kll_size_data_independent(self, result):
        # Table 3: KLL retains the same sample size on every data set.
        sizes = {by_sketch["kll"] for by_sketch in result.kb.values()}
        assert max(sizes) - min(sizes) < 0.5

    def test_ddsketch_pareto_needs_more_buckets_than_power(self, result):
        # Sec 4.3: ~670 buckets for Pareto vs ~120 for Power.
        assert (
            result.buckets["pareto"]["ddsketch"]
            > result.buckets["power"]["ddsketch"]
        )

    def test_everything_under_30kb(self, result):
        # Sec 4.3: "All of the algorithms consume less than 0.03 MB".
        for by_sketch in result.kb.values():
            for kb in by_sketch.values():
                assert kb < 30.0

    def test_table_renders(self, result):
        table = result.to_table()
        assert "pareto" in table
        assert "uddsketch" in table
