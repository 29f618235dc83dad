"""Snapshot exporters: canonical JSON and Prometheus text format.

The JSON form uses the same canonical encoding discipline as the
service wire protocol — sorted keys, no whitespace, ``allow_nan=False``
— so two snapshots with equal content are byte-identical and diffable.
(:meth:`Telemetry.snapshot` guarantees no non-finite floats, so the
strict encoder never trips.)

The Prometheus form is the plain text exposition format: counters and
gauges as single samples, histograms as summaries (``_count`` plus one
sample per exported quantile).  Every sample prints exactly: a value
read back from the text is the float in the snapshot.  Metric names
swap ``.`` for ``_`` to satisfy Prometheus naming rules.
"""

from __future__ import annotations

import json

from repro.errors import InvalidValueError

#: Exported quantile labels must match the keys LatencyHistogram emits.
_PROM_QUANTILES = (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99"))

#: Past 2**53 a float64 no longer holds every integer, and ``repr``
#: is the shorter exact spelling.
_EXACT_INTEGERS = 2.0**53


def to_canonical_json(snapshot: dict) -> str:
    """Deterministic JSON text for *snapshot* (sorted keys, compact)."""
    try:
        return json.dumps(
            snapshot, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise InvalidValueError(
            f"snapshot is not canonical-JSON encodable: {exc}"
        ) from exc


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    prom = "".join(out)
    if prom and prom[0].isdigit():
        prom = "_" + prom
    return prom


def to_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition of *snapshot* (trailing newline)."""
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        prom = _prom_name(name) + "_us"
        lines.append(f"# TYPE {prom} summary")
        for key, label in _PROM_QUANTILES:
            if key in summary:
                lines.append(
                    f'{prom}{{quantile="{label}"}} '
                    f"{_prom_value(summary[key])}"
                )
        lines.append(f"{prom}_count {summary.get('count', 0)}")
    return "\n".join(lines) + "\n"


def _prom_value(value: float) -> str:
    """Exact sample text: an integral value as an integer, any other
    with ``repr`` (the shortest string that parses back to it)."""
    value = float(value)
    if value.is_integer() and abs(value) < _EXACT_INTEGERS:
        return str(int(value))
    return repr(value)


def diff_snapshots(before: dict, after: dict) -> dict:
    """Delta of *after* relative to *before*.

    Counters diff as ``after - before`` (a counter absent from
    *before* counts as zero).  Gauges and histogram summaries are
    levels, not accumulations, so the diff just reports the *after*
    side along with histogram count deltas.
    """
    counter_diff: dict[str, int] = {}
    names = set(before.get("counters", {})) | set(after.get("counters", {}))
    for name in sorted(names):
        delta = after.get("counters", {}).get(name, 0) - before.get(
            "counters", {}
        ).get(name, 0)
        if delta:
            counter_diff[name] = delta
    histogram_diff: dict[str, dict] = {}
    names = set(before.get("histograms", {})) | set(
        after.get("histograms", {})
    )
    for name in sorted(names):
        after_summary = after.get("histograms", {}).get(name, {})
        delta = after_summary.get("count", 0) - before.get(
            "histograms", {}
        ).get(name, {}).get("count", 0)
        if delta or name not in before.get("histograms", {}):
            entry = dict(after_summary)
            entry["count_delta"] = delta
            histogram_diff[name] = entry
    return {
        "counters": counter_diff,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histogram_diff,
    }
