"""A latency histogram buffers its samples and folds them on read.

``LatencyHistogram.record_us`` appends to a pending list that goes into
the histogram's DDSketch with one ``update_batch`` when it reaches
``HISTOGRAM_FOLD_SIZE`` and before every read.  Batched and scalar
feeding of the collapsing store must leave the same bytes, so each
case here compares the histogram with a DDSketch fed one ``update`` per
sample, by ``dumps`` and by ``summary()``.  Needs numpy and pytest only
(``make race-check`` runs it).
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro.core import dumps
from repro.core.ddsketch import DDSketch
from repro.errors import InvalidValueError
from repro.obs.metrics import (
    HISTOGRAM_ALPHA,
    HISTOGRAM_FOLD_SIZE,
    HISTOGRAM_MAX_BINS,
    SUMMARY_QS,
    LatencyHistogram,
)

SIZES = {
    "fold-1": HISTOGRAM_FOLD_SIZE - 1,
    "fold": HISTOGRAM_FOLD_SIZE,
    "fold+1": HISTOGRAM_FOLD_SIZE + 1,
    "fold*10": 10 * HISTOGRAM_FOLD_SIZE,
}


def _samples(seed: int, n: int, wide: bool) -> list[float]:
    """Latencies in µs; *wide* ones span ~14 decades, far past the 512
    buckets, so the store collapses its lowest buckets many times."""
    rng = np.random.default_rng(seed)
    if wide:
        values = 10.0 ** rng.uniform(-6.0, 8.0, n)
    else:
        values = rng.lognormal(3.0, 1.0, n)
    # negatives (clamped to 0), both zeros and a bucket-sized repeat
    values[rng.random(n) < 0.05] = -3.0
    values[::97] = -0.0
    values[::89] = 0.0
    values[::83] = 42.0
    return values.tolist()


def _scalar_fed(samples: list[float]) -> DDSketch:
    sketch = DDSketch(
        alpha=HISTOGRAM_ALPHA, store="collapsing", max_bins=HISTOGRAM_MAX_BINS
    )
    for micros in samples:
        sketch.update(0.0 if micros < 0.0 else micros)
    return sketch


def _summary(sketch: DDSketch) -> dict[str, float]:
    out: dict[str, float] = {"count": sketch.count}
    if sketch.is_empty:
        return out
    out["min"] = sketch.min
    out["max"] = sketch.max
    labels = ("p50", "p90", "p99")
    out.update(zip(labels, sketch.quantiles(SUMMARY_QS)))
    return out


def _hexed(summary) -> dict[str, str]:
    return {key: float(value).hex() for key, value in summary.items()}


def _recorded(samples: list[float]) -> LatencyHistogram:
    histogram = LatencyHistogram("op")
    for micros in samples:
        histogram.record_us(micros)
    return histogram


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "collapsing"])
@pytest.mark.parametrize("size", SIZES.values(), ids=list(SIZES))
def test_histogram_equals_scalar_feeding(size, wide):
    for seed in range(3):
        samples = _samples(seed, size, wide)
        histogram = _recorded(samples)
        reference = _scalar_fed(samples)
        assert _hexed(histogram.summary()) == _hexed(_summary(reference))
        assert dumps(histogram._sketch) == dumps(reference)
        assert histogram.count == size
        assert histogram.quantiles(SUMMARY_QS) == reference.quantiles(
            SUMMARY_QS
        )


def test_wide_inputs_collapse():
    histogram = _recorded(_samples(0, 10 * HISTOGRAM_FOLD_SIZE, wide=True))
    histogram.count  # fold
    assert histogram._sketch._positive.is_collapsed


def test_reads_between_records_keep_the_bytes():
    """Reads at arbitrary points fold early: still the scalar bytes."""
    samples = _samples(7, 3 * HISTOGRAM_FOLD_SIZE + 5, wide=True)
    histogram = LatencyHistogram("op")
    for i, micros in enumerate(samples):
        histogram.record_us(micros)
        if i % 37 == 0:
            histogram.summary()
        if i % 101 == 0:
            histogram.quantile(0.5)
    histogram.count  # fold the tail
    assert dumps(histogram._sketch) == dumps(_scalar_fed(samples))


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 1e300], ids=repr
)
def test_unindexable_samples_raise_at_record(bad):
    histogram = LatencyHistogram("op")
    histogram.record_us(5.0)
    with pytest.raises(InvalidValueError):
        histogram.record_us(bad)
    for _ in range(HISTOGRAM_FOLD_SIZE):
        histogram.record_us(1.0)
    summary = histogram.summary()
    assert summary["count"] == HISTOGRAM_FOLD_SIZE + 1
    assert summary["max"] == 5.0


def test_negatives_clamp_to_zero():
    histogram = LatencyHistogram("op")
    for micros in (-5.0, -1e300, -0.5):
        histogram.record_us(micros)
    assert histogram.summary() == {
        "count": 3, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0,
    }


def test_unread_histogram_holds_at_most_the_fold_size():
    histogram = LatencyHistogram("op")
    for i in range(25 * HISTOGRAM_FOLD_SIZE + 3):
        histogram.record_us(float(i))
        assert len(histogram._pending) <= HISTOGRAM_FOLD_SIZE
    assert len(histogram._pending) == 3
    assert histogram.count == 25 * HISTOGRAM_FOLD_SIZE + 3
    assert not histogram._pending


def test_concurrent_recorders_end_with_an_exact_count(lock_sanitizer):
    """More threads than cores, switching every microsecond: a lost
    append or a sample folded twice would show in the count."""
    histogram = LatencyHistogram("op")
    threads, per_thread = 4, 10_000
    start = threading.Barrier(threads + 1)
    done = threading.Event()
    seen: list[int] = []
    errors: list[BaseException] = []

    def record(slot: int) -> None:
        try:
            start.wait()
            for i in range(per_thread):
                histogram.record_us(float(slot * per_thread + i))
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    def read() -> None:
        try:
            start.wait()
            while not done.is_set():
                seen.append(histogram.summary()["count"])
        except BaseException as exc:
            errors.append(exc)

    recorders = [
        threading.Thread(target=record, args=(slot,))
        for slot in range(threads)
    ]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in (*recorders, reader):
            thread.start()
        for thread in recorders:
            thread.join(timeout=60.0)
        done.set()
        reader.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (*recorders, reader))
    assert not errors
    assert seen and seen == sorted(seen)  # a count never goes backwards
    summary = histogram.summary()
    assert summary["count"] == threads * per_thread
    assert summary["min"] == 0.0
    assert summary["max"] == float(threads * per_thread - 1)
