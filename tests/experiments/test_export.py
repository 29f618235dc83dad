"""Tests for structured result export."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.accuracy import run_accuracy
from repro.experiments.config import SCALES
from repro.experiments.export import to_jsonable, write_json
from repro.experiments.memory import measure_memory
from repro.experiments.speed import measure_insertion

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def accuracy_result():
    return run_accuracy("uniform", ("ddsketch",), scale=SMOKE)


class TestToJsonable:
    def test_accuracy_structure(self, accuracy_result):
        data = to_jsonable(accuracy_result)
        assert data["kind"] == "accuracy"
        assert data["dataset"] == "uniform"
        ci = data["per_quantile"]["ddsketch"]["0.5"]
        assert set(ci) == {"mean", "ci_half_width", "n", "confidence"}
        json.dumps(data)  # must be serialisable

    def test_speed_structure(self):
        result = measure_insertion(("ddsketch",), scale=SMOKE)
        data = to_jsonable(result)
        assert data["kind"] == "speed"
        assert "ddsketch" in data["seconds_per_op"]
        assert data["ranking"] == ["ddsketch"]

    def test_memory_structure(self):
        result = measure_memory(("moments",), scale=SMOKE)
        data = to_jsonable(result)
        assert data["kind"] == "memory"
        assert data["points"] == SMOKE.memory_points
        json.dumps(data)

    def test_recursive_containers(self, accuracy_result):
        data = to_jsonable({"uniform": accuracy_result, "n": 3})
        assert data["uniform"]["kind"] == "accuracy"
        assert data["n"] == 3

    def test_unknown_type_rejected(self):
        with pytest.raises(ExperimentError):
            to_jsonable(object())


class TestFileOutput:
    def test_write_json(self, accuracy_result, tmp_path):
        path = write_json(accuracy_result, tmp_path / "out" / "a.json")
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "accuracy"


class TestCLIOutputFlag:
    def test_writes_json_files(self, fig5a_run):
        assert fig5a_run.code == 0
        payload = json.loads((fig5a_run.output / "fig5a.json").read_text())
        assert payload["kind"] == "speed"
