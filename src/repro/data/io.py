"""Persistence for event batches.

Lets a generated workload be frozen to disk and replayed byte-exactly —
the reproduction workflow's answer to the paper's fixed data files: one
run generates and saves the stream, later runs (or other machines)
replay the identical events through different sketches or engine
configurations.

Two formats:

* ``.npz`` (numpy archive) — compact binary, lossless, preferred;
* ``.csv`` — interchange with external tooling; values survive
  round-trip via ``repr`` precision.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError

_NPZ_KEYS = ("values", "event_times", "arrival_times")
_CSV_HEADER = ["value", "event_time_ms", "arrival_time_ms"]


def save_batch(batch: EventBatch, path: str | Path) -> Path:
    """Write *batch* to ``.npz`` or ``.csv`` (chosen by extension)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npz":
        np.savez_compressed(
            path,
            values=batch.values,
            event_times=batch.event_times,
            arrival_times=batch.arrival_times,
        )
    elif path.suffix == ".csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_HEADER)
            for value, event_time, arrival_time in zip(
                batch.values, batch.event_times, batch.arrival_times
            ):
                writer.writerow([
                    repr(float(value)),
                    repr(float(event_time)),
                    repr(float(arrival_time)),
                ])
    else:
        raise InvalidValueError(
            f"unsupported extension {path.suffix!r}; use .npz or .csv"
        )
    return path


def load_batch(path: str | Path) -> EventBatch:
    """Read an event batch written by :func:`save_batch`."""
    path = Path(path)
    if not path.exists():
        raise InvalidValueError(f"no such batch file: {path}")
    if path.suffix == ".npz":
        with np.load(path) as archive:
            missing = [key for key in _NPZ_KEYS if key not in archive]
            if missing:
                raise InvalidValueError(
                    f"{path} is not an event-batch archive "
                    f"(missing {missing})"
                )
            return EventBatch(
                values=archive["values"].astype(np.float64),
                event_times=archive["event_times"].astype(np.float64),
                arrival_times=archive["arrival_times"].astype(np.float64),
            )
    if path.suffix == ".csv":
        values: list[float] = []
        event_times: list[float] = []
        arrival_times: list[float] = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise InvalidValueError(
                    f"{path} is not an event-batch CSV "
                    f"(header {header!r})"
                )
            for row in reader:
                try:
                    value, event_time, arrival_time = map(float, row)
                except ValueError:
                    raise InvalidValueError(
                        f"malformed row at line {reader.line_num} of "
                        f"{path}: {row!r}"
                    ) from None
                values.append(value)
                event_times.append(event_time)
                arrival_times.append(arrival_time)
        return EventBatch(
            values=np.asarray(values),
            event_times=np.asarray(event_times),
            arrival_times=np.asarray(arrival_times),
        )
    raise InvalidValueError(
        f"unsupported extension {path.suffix!r}; use .npz or .csv"
    )
