"""``python -m repro.obs`` — inspect and diff telemetry snapshots.

Subcommands::

    python -m repro.obs dump snapshot.json            # human table
    python -m repro.obs dump snapshot.json --format prom
    python -m repro.obs dump snapshot.json --format json
    python -m repro.obs diff before.json after.json

Snapshot files are canonical-JSON documents
(:func:`repro.obs.export.to_canonical_json` of a
:meth:`~repro.obs.telemetry.Telemetry.snapshot`), such as the one
``python -m repro.service serve`` prints when it shuts down.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import InvalidValueError
from repro.obs.export import diff_snapshots, to_canonical_json, to_prometheus


def _load_snapshot(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidValueError(f"cannot read snapshot {path!r}: {exc}")
    if not isinstance(snapshot, dict):
        raise InvalidValueError(
            f"snapshot {path!r} is not a JSON object"
        )
    return snapshot


def _to_table(snapshot: dict) -> str:
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<40} {counters[name]}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<40} {gauges[name]:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms (us):")
        for name in sorted(histograms):
            summary = histograms[name]
            cells = [f"count={summary.get('count', 0)}"]
            for key in ("min", "p50", "p90", "p99", "max"):
                if key in summary:
                    cells.append(f"{key}={summary[key]:.1f}")
            lines.append(f"  {name:<40} {' '.join(cells)}")
    if not lines:
        lines.append("(empty snapshot)")
    return "\n".join(lines)


def _cmd_dump(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    if args.format == "json":
        print(to_canonical_json(snapshot))
    elif args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot))
    else:
        print(_to_table(snapshot))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    before = _load_snapshot(args.before)
    after = _load_snapshot(args.after)
    print(to_canonical_json(diff_snapshots(before, after)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and diff observability snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser("dump", help="print one snapshot")
    dump.add_argument("snapshot", help="path to a snapshot JSON file")
    dump.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="output format (default: table)",
    )
    dump.set_defaults(func=_cmd_dump)

    diff = sub.add_parser("diff", help="delta between two snapshots")
    diff.add_argument("before", help="earlier snapshot JSON file")
    diff.add_argument("after", help="later snapshot JSON file")
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
