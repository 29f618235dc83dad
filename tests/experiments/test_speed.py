"""Tests for the speed experiment runners (smoke scale)."""

import pytest

from repro.experiments.config import SCALES
from repro.experiments.speed import (
    MERGE_DISTRIBUTIONS,
    measure_insertion,
    measure_merge,
    measure_query,
)

SMOKE = SCALES["smoke"]
SKETCHES = ("ddsketch", "moments")


@pytest.fixture(scope="module")
def insertion():
    """One smoke-scale Fig 5a run (each sketch timed SPEED_REPEATS
    times) shared by the insertion tests."""
    return measure_insertion(SKETCHES, scale=SMOKE)


class TestInsertion:
    def test_measures_all_sketches(self, insertion):
        result = insertion
        assert set(result.seconds_per_op) == set(SKETCHES)
        for seconds in result.seconds_per_op.values():
            assert 0 < seconds < 1e-3  # sub-millisecond per element

    def test_ranking_sorted(self, insertion):
        result = insertion
        ranking = result.ranking()
        times = [result.seconds_per_op[name] for name in ranking]
        assert times == sorted(times)

    def test_table_renders(self, insertion):
        result = insertion
        assert "insertion" in result.to_table()

    def test_reports_median_and_iqr(self, insertion):
        for name in SKETCHES:
            assert insertion.iqr[name] >= 0
            assert insertion.detail[name]["count"] == SMOKE.speed_points
        assert "IQR" in insertion.to_table()


class TestQuery:
    def test_sizes_and_structure(self):
        results = measure_query(
            SKETCHES, data_sizes=(1_000, 5_000), scale=SMOKE,
            repetitions=2,
        )
        assert set(results) == {1_000, 5_000}
        for result in results.values():
            assert set(result.seconds_per_op) == set(SKETCHES)

    def test_moments_query_cost_independent_of_size(self):
        # Fig 5b: Moments Sketch query cost is solver-bound, not
        # data-size-bound.
        results = measure_query(
            ("moments",), data_sizes=(1_000, 10_000), scale=SMOKE,
            repetitions=2,
        )
        small = results[1_000].seconds_per_op["moments"]
        large = results[10_000].seconds_per_op["moments"]
        assert large < 20 * small


class TestMerge:
    def test_merge_distributions_match_paper(self):
        names = [dist.name for dist in MERGE_DISTRIBUTIONS]
        assert names == [
            "uniform(30,100)", "binomial(n=100,p=0.2)",
            "zipf(n=20,s=0.6)",
        ]

    def test_measures_and_verifies_counts(self):
        result = measure_merge(SKETCHES, num_sketches=5, scale=SMOKE)
        for name in SKETCHES:
            assert result.seconds_per_op[name] > 0
            assert result.iqr[name] >= 0
            assert result.detail[name]["merged_count"] == (
                5 * SMOKE.merge_prefill
            )

    def test_moments_merges_fastest(self):
        # Fig 5c headline: Moments Sketch merge is vector addition.
        result = measure_merge(
            ("moments", "uddsketch", "req"), num_sketches=8,
            scale=SMOKE,
        )
        assert result.ranking()[0] == "moments"
