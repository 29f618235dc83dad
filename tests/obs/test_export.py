"""Exporter tests: canonical JSON, Prometheus text, snapshot diffs."""

import json

import pytest

from repro.errors import InvalidValueError
from repro.obs.export import (
    _prom_name,
    diff_snapshots,
    to_canonical_json,
    to_prometheus,
)
from repro.obs.telemetry import Telemetry
from repro.service.clock import ManualClock


def make_snapshot():
    clock = ManualClock(0.0)
    telemetry = Telemetry(clock=clock)
    telemetry.counter("server.shed_requests").inc(2)
    telemetry.gauge("server.ingest_queue_depth").set(5.0)
    with telemetry.span("server.op.quantile"):
        clock.advance(1.5)
    return telemetry.snapshot()


class TestCanonicalJson:
    def test_equal_content_is_byte_identical(self):
        a = to_canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        b = to_canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b == '{"a":{"c":3,"d":2},"b":1}'

    def test_round_trips_through_json(self):
        snapshot = make_snapshot()
        assert json.loads(to_canonical_json(snapshot)) == snapshot

    def test_nonfinite_values_are_rejected(self):
        with pytest.raises(InvalidValueError):
            to_canonical_json({"bad": float("inf")})

    def test_unencodable_values_are_rejected(self):
        with pytest.raises(InvalidValueError):
            to_canonical_json({"bad": object()})


class TestPrometheus:
    def test_name_mangling(self):
        assert _prom_name("server.op.quantile") == "server_op_quantile"
        assert _prom_name("ingest.shard.0.values") == (
            "ingest_shard_0_values"
        )
        assert _prom_name("9lives") == "_9lives"

    def test_exposition_format(self):
        text = to_prometheus(make_snapshot())
        lines = text.splitlines()
        assert "# TYPE server_shed_requests counter" in lines
        assert "server_shed_requests 2" in lines
        assert "# TYPE server_ingest_queue_depth gauge" in lines
        assert "server_ingest_queue_depth 5" in lines
        assert "# TYPE span_server_op_quantile_us summary" in lines
        assert "span_server_op_quantile_us_count 1" in lines
        quantile_lines = [
            line for line in lines
            if line.startswith('span_server_op_quantile_us{quantile=')
        ]
        assert len(quantile_lines) == 3
        assert text.endswith("\n")

    def test_values_round_trip_exactly(self):
        snapshot = {
            "counters": {},
            "gauges": {
                "checkpoint.size_bytes": 1_333_662.0,
                "server.ingest_queue_depth": 5.0,
                "ratio": 0.1 + 0.2,
                "huge": 2.0**60,
            },
            "histograms": {
                "op": {"count": 3, "p50": 12.0, "p90": 1e-7,
                       "p99": 1234.5678901},
            },
        }
        samples = {}
        for line in to_prometheus(snapshot).splitlines():
            if not line.startswith("#"):
                name, text = line.rsplit(" ", 1)
                samples[name] = text
        assert samples["checkpoint_size_bytes"] == "1333662"
        assert samples["server_ingest_queue_depth"] == "5"
        assert samples['op_us{quantile="0.5"}'] == "12"
        assert samples['op_us{quantile="0.99"}'] == "1234.5678901"
        assert float(samples["ratio"]) == 0.1 + 0.2
        assert float(samples["huge"]) == 2.0**60
        assert float(samples['op_us{quantile="0.9"}']) == 1e-7

    def test_empty_histogram_exports_only_its_count(self):
        snapshot = {
            "enabled": True,
            "counters": {},
            "gauges": {},
            "histograms": {"quiet": {"unit": "us", "count": 0}},
        }
        text = to_prometheus(snapshot)
        assert "quiet_us_count 0" in text
        assert "quantile=" not in text


class TestDiff:
    def test_counters_diff_and_zero_deltas_drop_out(self):
        before = {"counters": {"a": 1, "b": 5}}
        after = {"counters": {"a": 4, "b": 5, "c": 2}}
        diff = diff_snapshots(before, after)
        assert diff["counters"] == {"a": 3, "c": 2}

    def test_histograms_report_after_summary_with_count_delta(self):
        before = {"histograms": {"h": {"count": 2, "p50": 10.0}}}
        after = {"histograms": {"h": {"count": 5, "p50": 12.0}}}
        diff = diff_snapshots(before, after)
        assert diff["histograms"]["h"]["count_delta"] == 3
        assert diff["histograms"]["h"]["p50"] == 12.0

    def test_gauges_pass_through_as_levels(self):
        diff = diff_snapshots(
            {"gauges": {"depth": 9.0}}, {"gauges": {"depth": 4.0}}
        )
        assert diff["gauges"] == {"depth": 4.0}
