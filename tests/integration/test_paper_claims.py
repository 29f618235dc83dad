"""Integration tests asserting the paper's qualitative findings.

Each test pins one claim from the evaluation (Sec 4) at reduced scale:
who wins, who fails, and where — the *shape* of the published results.
"""

import numpy as np
import pytest

from repro.core import PAPER_SKETCHES, paper_config
from repro.data import (
    DriftingPareto,
    DriftingUniform,
    NYTFares,
    PowerConsumption,
    adaptability_workload,
)
from repro.metrics import relative_error, true_quantile

N = 200_000


def errors_on(dataset_name, values, quantiles, seed=0):
    true_sorted = np.sort(values)
    out = {}
    for name in PAPER_SKETCHES:
        sketch = paper_config(name, dataset=dataset_name, seed=seed)
        sketch.update_batch(values)
        out[name] = {
            q: relative_error(
                true_quantile(true_sorted, q), sketch.quantile(q)
            )
            for q in quantiles
        }
    return out


@pytest.fixture(scope="module")
def pareto_errors():
    rng = np.random.default_rng(1)
    values = DriftingPareto().sample(N, rng)
    return errors_on("pareto", values, (0.5, 0.95, 0.98, 0.99))


@pytest.fixture(scope="module")
def uniform_errors():
    rng = np.random.default_rng(2)
    values = DriftingUniform().sample(N, rng)
    return errors_on(
        "uniform", values, (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99)
    )


@pytest.fixture(scope="module")
def nyt_errors():
    rng = np.random.default_rng(3)
    values = NYTFares().sample(N, rng)
    return errors_on("nyt", values, (0.25, 0.5, 0.95, 0.98, 0.99))


@pytest.fixture(scope="module")
def power_errors():
    rng = np.random.default_rng(4)
    values = PowerConsumption().sample(N, rng)
    return errors_on("power", values, (0.25, 0.5, 0.75, 0.95, 0.99))


class TestFig6aPareto:
    def test_kll_tail_error_blows_up(self, pareto_errors):
        # Sec 4.5.1: KLL's 0.99 estimate has large relative error on
        # the scattered Pareto tail while DDSketch stays within alpha.
        assert pareto_errors["kll"][0.99] > 0.02
        assert pareto_errors["kll"][0.99] > (
            5 * pareto_errors["ddsketch"][0.99]
        )

    def test_relative_error_sketches_hold_the_line(self, pareto_errors):
        for name in ("ddsketch", "uddsketch"):
            for q, err in pareto_errors[name].items():
                assert err <= 0.0101, (name, q)

    def test_req_hra_accurate_at_tail(self, pareto_errors):
        assert pareto_errors["req"][0.98] < 0.01
        assert pareto_errors["req"][0.99] < 0.01

    def test_moments_ok_on_synthetic(self, pareto_errors):
        # Sec 4.5.1: Moments approximates sampled distributions well.
        assert pareto_errors["moments"][0.5] < 0.05


class TestFig6bUniform:
    def test_everyone_below_threshold(self, uniform_errors):
        # Sec 4.5.2: "all five algorithms perform very well against
        # uniformly varying data".
        for name, errors in uniform_errors.items():
            for q, err in errors.items():
                assert err < 0.011, (name, q)

    def test_req_extreme_upper_accuracy(self, uniform_errors):
        assert uniform_errors["req"][0.99] < 0.001


class TestFig6cNYT:
    def test_sampling_sketches_exact_at_repeated_quartile(self, nyt_errors):
        # Sec 4.5.3: the 0.25 quantile is a value repeated >200k times,
        # so KLL/REQ keep it exactly.
        assert nyt_errors["kll"][0.25] == 0.0
        assert nyt_errors["req"][0.25] == 0.0

    def test_moments_struggles_on_real_world(self, nyt_errors):
        # Sec 4.5.5: Moments exceeds the 1% threshold on real data.
        worst_moments = max(nyt_errors["moments"].values())
        assert worst_moments > 0.01

    def test_udd_and_dd_meet_guarantee(self, nyt_errors):
        for name in ("ddsketch", "uddsketch"):
            assert max(nyt_errors[name].values()) <= 0.0101


class TestFig6dPower:
    def test_moments_mid_quantile_error_is_its_worst(self, power_errors):
        # Sec 4.5.4: the mid quantiles fall between the humps of the
        # bimodal PDF, where the max-entropy fit is worst.
        moments = power_errors["moments"]
        mid = max(moments[0.25], moments[0.5], moments[0.75])
        assert mid > moments[0.99]

    def test_dd_udd_excel(self, power_errors):
        for name in ("ddsketch", "uddsketch"):
            assert max(power_errors[name].values()) <= 0.0101

    def test_req_best_at_tail(self, power_errors):
        tail_errors = {
            name: errors[0.99] for name, errors in power_errors.items()
        }
        assert tail_errors["req"] == min(tail_errors.values())


class TestFig8Adaptability:
    @pytest.fixture(scope="class")
    def shift_errors(self):
        rng = np.random.default_rng(5)
        half = 100_000
        values = adaptability_workload(half, half).sample(2 * half, rng)
        return errors_on(None, values, (0.25, 0.5, 0.75, 0.95))

    def test_dd_udd_stable_at_the_boundary(self, shift_errors):
        # Sec 4.5.7: DD/UDD accuracy at the 0.5 quantile stays stable.
        assert shift_errors["ddsketch"][0.5] <= 0.0101
        assert shift_errors["uddsketch"][0.5] <= 0.0101

    def test_sampling_sketches_jump_at_the_boundary(self):
        # Sec 4.5.7: KLL and REQ discard the boundary value with high
        # probability and answer from the other regime, producing a
        # large jump — a probabilistic event, so check across seeds.
        rng = np.random.default_rng(17)
        half = 50_000
        values = adaptability_workload(half, half).sample(2 * half, rng)
        true_sorted = np.sort(values)
        true_median = true_quantile(true_sorted, 0.5)
        jumps = {"kll": [], "req": []}
        for seed in range(6):
            for name in jumps:
                sketch = paper_config(name, seed=seed)
                sketch.update_batch(values)
                jumps[name].append(
                    relative_error(true_median, sketch.quantile(0.5))
                )
        # At least one sampling sketch shows the boundary jump, and KLL
        # shows it in a majority of runs.
        assert max(max(v) for v in jumps.values()) > 0.05
        assert np.mean(jumps["kll"]) > 0.01

    def test_moments_confused_by_the_shift(self, shift_errors):
        assert shift_errors["moments"][0.5] > 0.01


class TestTable3Shape:
    def test_size_ordering(self):
        # Table 3: moments << {kll, dds} < {req} < udds (Pareto row).
        rng = np.random.default_rng(6)
        values = DriftingPareto().sample(N, rng)
        sizes = {}
        for name in PAPER_SKETCHES:
            sketch = paper_config(name, dataset="pareto", seed=0)
            sketch.update_batch(values)
            sizes[name] = sketch.size_bytes()
        assert sizes["moments"] == min(sizes.values())
        assert sizes["moments"] < 200
        assert sizes["uddsketch"] == max(sizes.values())
        assert sizes["kll"] < sizes["req"]
