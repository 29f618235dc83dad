"""Unit tests for the sketch registry and paper factories."""

import pytest

from repro.core import (
    DDSketch,
    KLLSketch,
    MomentsSketch,
    ReqSketch,
    UDDSketch,
    make_sketch,
    paper_config,
)
from repro.core.registry import (
    BASELINE_SKETCHES,
    PAPER_SKETCHES,
    SKETCH_CLASSES,
    SKETCHES,
)
from repro.errors import InvalidValueError


class TestRegistry:
    def test_paper_sketches_listed_in_order(self):
        assert PAPER_SKETCHES == (
            "kll", "moments", "ddsketch", "uddsketch", "req",
        )

    def test_every_name_instantiates(self):
        for name in SKETCH_CLASSES:
            sketch = make_sketch(name)
            assert sketch.is_empty

    def test_make_sketch_passes_parameters(self):
        sketch = make_sketch("ddsketch", alpha=0.05)
        assert isinstance(sketch, DDSketch)
        assert sketch.alpha == pytest.approx(0.05)

    def test_unknown_name(self):
        with pytest.raises(InvalidValueError):
            make_sketch("quantium")
        with pytest.raises(InvalidValueError):
            paper_config("quantium")

    def test_baselines_disjoint_from_paper_set(self):
        assert not set(PAPER_SKETCHES) & set(BASELINE_SKETCHES)

    def test_every_list_comes_from_the_one_table(self):
        assert list(SKETCH_CLASSES) == list(SKETCHES)
        assert PAPER_SKETCHES + BASELINE_SKETCHES == tuple(SKETCHES)
        assert BASELINE_SKETCHES == (
            "tdigest", "gk", "gkarray", "hdr", "random", "dcs", "exact",
        )
        for name, spec in SKETCHES.items():
            assert SKETCH_CLASSES[name] is spec.cls
            assert spec.cls.name == name

    def test_paper_config_leaves_the_table_as_it_was(self):
        before = {name: dict(spec.params) for name, spec in SKETCHES.items()}
        for name in SKETCHES:
            paper_config(name, dataset="pareto", seed=9)
        assert {
            name: dict(spec.params) for name, spec in SKETCHES.items()
        } == before


class TestPaperConfig:
    def test_kll_parameters(self):
        sketch = paper_config("kll")
        assert isinstance(sketch, KLLSketch)
        assert sketch.max_compactor_size == 350

    def test_req_parameters(self):
        sketch = paper_config("req")
        assert isinstance(sketch, ReqSketch)
        assert sketch.num_sections == 30
        assert sketch.hra is True

    def test_ddsketch_parameters(self):
        sketch = paper_config("ddsketch")
        assert isinstance(sketch, DDSketch)
        assert sketch.alpha == pytest.approx(0.01)
        assert sketch._store_kind == "dense"

    def test_uddsketch_parameters(self):
        sketch = paper_config("uddsketch")
        assert isinstance(sketch, UDDSketch)
        assert sketch.max_buckets == 1024
        assert sketch.collapse_budget == 12
        assert sketch.final_alpha == pytest.approx(0.01)

    def test_moments_transform_depends_on_dataset(self):
        # Sec 4.2: log transform for Pareto and Power only.
        assert paper_config("moments", dataset="pareto").transform == "log"
        assert paper_config("moments", dataset="power").transform == "log"
        assert paper_config("moments", dataset="nyt").transform == "none"
        assert paper_config("moments", dataset="uniform").transform == "none"
        assert paper_config("moments").transform == "none"
        sketch = paper_config("moments")
        assert isinstance(sketch, MomentsSketch)
        assert sketch.num_moments == 12

    def test_seed_makes_randomized_sketches_deterministic(self, rng):
        data = rng.uniform(0, 1, 20_000)
        a = paper_config("kll", seed=5)
        b = paper_config("kll", seed=5)
        a.update_batch(data)
        b.update_batch(data)
        assert a.quantile(0.9) == b.quantile(0.9)
