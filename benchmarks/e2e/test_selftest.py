"""Self-test of the benchmark (not part of the tier-1 suite).

Run from the repository root, about two minutes at ``--smoke`` scale::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selftest.py -q

It runs the whole command three times (two runs of one seed, one of
another) and checks what makes the numbers trustworthy: the declared
names are exactly the reported names, no cell is filler, deterministic
metrics repeat exactly and depend on the seed, spans nest, and no timed
block overlaps a server stop or input generation.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SEED_A, SEED_B = spec.DEFAULT_SEED, spec.DEFAULT_SEED + 1
#: Repeat exactly for one seed, differ for another.
DETERMINISTIC = {
    "end_to_end": ("rel_error_mean", "state_bytes"),
    "per_layer": (
        "streaming.late_drop_share",
        "service.wire_bytes_per_value",
        "durability.wal_bytes_per_value",
    ),
}
TIME_UNITS = ("s", "ms", "us", "values/s", "1/s")


def _report(tmp: Path, seed: int, tag: str) -> dict:
    target = tmp / f"report-{tag}.json"
    done = subprocess.run(
        RUN + ["--smoke", "--seed", str(seed), "--out", str(target)],
        cwd=ROOT, stdout=subprocess.PIPE, check=False,
    )
    assert done.returncode == 0, done.stdout.decode()[-2000:]
    return json.loads(target.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    tmp = tmp_path_factory.mktemp("e2e")
    first = _report(tmp, SEED_A, "a1")
    traces = {
        workload: json.loads(
            (HERE / "out" / f"trace_{workload}.json").read_text())
        for workload in spec.WORKLOADS
    }
    return {
        "a1": first,
        "a2": _report(tmp, SEED_A, "a2"),
        "b": _report(tmp, SEED_B, "b"),
        "traces": traces,
    }


def _declared(workload: str, kind: str) -> dict[str, str]:
    return run.declared(workload, traced=kind == "per_layer")


def test_manifest_is_the_spec() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": metric["bound"]}
        for metric in manifest["end_to_end"]
    )
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for workload in manifest["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_every_declared_pair_once_and_no_other(reports) -> None:
    for workload, passes in reports["a1"]["workloads"].items():
        for kind, result in passes.items():
            assert set(result["metrics"]) == set(_declared(workload, kind))
            for name, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (workload, name)
            assert result["failed"] == 0, result["failures"]
            assert result["attempted"] >= 1
        for metric in spec.END_TO_END:
            assert passes["end_to_end"]["metrics"][metric.name]["value"] > 0


def test_no_filler(reports) -> None:
    """No two time metrics of a workload are equal, and none is a
    calibration reading (the 2116 us of PR 11)."""
    for workload, passes in reports["a1"]["workloads"].items():
        units = {**_declared(workload, "end_to_end"),
                 **_declared(workload, "per_layer")}
        values = {
            name: entry["value"]
            for result in passes.values()
            for name, entry in result["metrics"].items()
            if units[name] in TIME_UNITS and not name.startswith("harness.cal")
        }
        assert len(set(values.values())) == len(values), workload
        calibration = passes["per_layer"]["metrics"]["harness.cal_ms_p50"]
        for name, value in values.items():
            for scale in (1.0, 1e3, 1e-3, 1e6, 1e-6):
                assert value != calibration["value"] * scale, name


def test_deterministic_metrics(reports) -> None:
    for kind, names in DETERMINISTIC.items():
        for workload in spec.WORKLOADS:
            cells = [
                reports[tag]["workloads"][workload][kind]["metrics"]
                for tag in ("a1", "a2", "b")
            ]
            for name in names:
                if name not in cells[0]:
                    continue
                first, again, other = (cell[name]["value"] for cell in cells)
                assert first == again, (workload, name)
                assert first != other, (workload, name)


def test_spans_nest_and_blocks_exclude_untimed_work(reports) -> None:
    for workload, trace in reports["traces"].items():
        spans = {span["id"]: span for span in trace["spans"]}
        assert spans, workload
        for span in spans.values():
            assert span["end"] >= span["start"]
            parent = spans.get(span["parent"])
            if parent is not None:
                assert parent["start"] <= span["start"], span
                assert span["end"] <= parent["end"], span
        blocks = [s for s in spans.values() if s["name"].startswith("block.")]
        untimed = [
            s for s in spans.values()
            if s["name"] in ("service.server.stop",
                             "harness.input_generation", "harness.reference")
        ]
        assert blocks and untimed, workload
        for block in blocks:
            for other in untimed:
                assert (other["end"] <= block["start"]
                        or block["end"] <= other["start"]), (block, other)


def test_round_trip_decomposes(reports) -> None:
    layer = reports["a1"]["workloads"]["tcp_ingest"]["per_layer"]["metrics"]
    parts = sum(
        layer[name]["value"]
        for name in (
            "service.protocol.encode_request_us",
            "service.protocol.decode_request_us",
            "service.protocol.response_codec_us",
            "service.server.dispatch_ingest_us",
        )
    )
    assert parts < layer["service.client.ingest_roundtrip_us"]["value"]
    assert layer["service.socket.self_us"]["value"] >= 0
    for passes in reports["a1"]["workloads"].values():
        assert "harness.trace_overhead_share" in passes["per_layer"]["metrics"]


def test_driver_form(tmp_path) -> None:
    for trace, expected in (
        ("0", [metric.name for metric in spec.END_TO_END]),
        ("1", [metric.name for metric in spec.PER_LAYER]),
    ):
        done = subprocess.run(
            RUN + ["--workload", "stream_windows", "--seed", "7",
                   "--seconds", "0.6", "--trace", trace],
            cwd=tmp_path, stdout=subprocess.PIPE, check=True,
        )
        last = json.loads(done.stdout.decode().strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == expected
        for entry in last["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "sketch_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        check=False,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
