"""Tests for the Sec 5.2 related-work comparison (smoke scale)."""

import pytest

from repro.experiments.config import SCALES
from repro.experiments.related_work import COMPARED, run_related_work

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def result():
    return run_related_work(scale=SMOKE)


class TestRelatedWork:
    def test_covers_all_eleven_algorithms(self, result):
        assert set(result.rows) == set(COMPARED)
        assert len(COMPARED) == 11

    def test_compared_in_the_papers_order_then_the_baselines(self):
        assert COMPARED == (
            "kll", "moments", "ddsketch", "uddsketch", "req",
            "tdigest", "gk", "gkarray", "hdr", "random", "dcs",
        )

    def test_metrics_present_and_sane(self, result):
        for name, row in result.rows.items():
            assert row["mean_rel_err"] >= 0, name
            assert row["mean_rank_err"] >= 0, name
            assert row["size_kb"] > 0, name
            assert row["ingest_ns_per_value"] > 0, name

    def test_dcs_needs_most_space(self, result):
        # Sec 5.2.3: the turnstile algorithm's footprint dwarfs the
        # cash-register sketches.
        assert result.rows["dcs"]["size_kb"] == max(
            row["size_kb"] for row in result.rows.values()
        )

    def test_moments_smallest(self, result):
        assert result.rows["moments"]["size_kb"] == min(
            row["size_kb"] for row in result.rows.values()
        )

    def test_ddsketch_holds_guarantee(self, result):
        assert result.rows["ddsketch"]["mean_rel_err"] <= 0.0101

    def test_table_renders(self, result):
        table = result.to_table()
        assert "dcs" in table and "hdr" in table
