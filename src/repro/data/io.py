"""Persistence for event batches.

Lets a generated workload be frozen to disk and replayed byte-exactly —
the reproduction workflow's answer to the paper's fixed data files: one
run generates and saves the stream, later runs (or other machines)
replay the identical events through different sketches or engine
configurations.

The format is ``.npz`` (a compressed numpy archive): binary and
lossless.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError

_NPZ_KEYS = ("values", "event_times", "arrival_times")


def save_batch(batch: EventBatch, path: str | Path) -> Path:
    """Write *batch* to a ``.npz`` archive at *path*."""
    path = Path(path)
    if path.suffix != ".npz":
        raise InvalidValueError(
            f"unsupported extension {path.suffix!r}; use .npz"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        values=batch.values,
        event_times=batch.event_times,
        arrival_times=batch.arrival_times,
    )
    return path


def load_batch(path: str | Path) -> EventBatch:
    """Read an event batch written by :func:`save_batch`."""
    path = Path(path)
    if not path.exists():
        raise InvalidValueError(f"no such batch file: {path}")
    if path.suffix != ".npz":
        raise InvalidValueError(
            f"unsupported extension {path.suffix!r}; use .npz"
        )
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
