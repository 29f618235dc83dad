"""Unit tests for GKArray (buffered Greenwald-Khanna)."""

import sys

import numpy as np
import pytest

from repro.core import GKArray, GKSketch, dumps, loads
from repro.errors import IncompatibleSketchError, InvalidValueError


class TestBasics:
    def test_validation(self):
        with pytest.raises(InvalidValueError):
            GKArray(epsilon=0.6)
        with pytest.raises(InvalidValueError):
            GKArray(buffer_size=0)
        with pytest.raises(InvalidValueError):
            GKArray().update(float("nan"))

    def test_default_buffer_tracks_epsilon(self):
        assert GKArray(epsilon=0.01).buffer_size == 50
        assert GKArray(epsilon=0.001).buffer_size == 500

    def test_small_stream_exact(self):
        sketch = GKArray(epsilon=0.05)
        for value in range(1, 101):
            sketch.update(float(value))
        assert abs(sketch.quantile(0.5) - 50) <= 10


class TestAccuracy:
    def test_rank_error_guarantee(self, rng):
        data = rng.uniform(0, 1, 50_000)
        sketch = GKArray(epsilon=0.01)
        sketch.update_batch(data)
        s = np.sort(data)
        for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
            est = sketch.quantile(q)
            rank = np.searchsorted(s, est, side="right") / s.size
            assert abs(rank - q) <= 0.02, q

    def test_matches_gk_accuracy(self, rng):
        data = rng.uniform(0, 1_000, 20_000)
        s = np.sort(data)
        array_sketch = GKArray(epsilon=0.01)
        array_sketch.update_batch(data)
        classic = GKSketch(epsilon=0.01)
        classic.update_batch(data)

        def mean_rank_error(sketch):
            errors = []
            for q in (0.25, 0.5, 0.75, 0.95):
                est = sketch.quantile(q)
                rank = np.searchsorted(s, est, side="right") / s.size
                errors.append(abs(rank - q))
            return float(np.mean(errors))

        assert mean_rank_error(array_sketch) <= (
            mean_rank_error(classic) + 0.01
        )

    def test_faster_ingest_than_classic_gk(self, rng):
        # The buffered sweep is the whole point of GKArray (Sec 5.1):
        # classic GK shifts its summary lists once per inserted value,
        # GKArray rewrites them once per buffer.  The test counts those
        # passes instead of timing them, so it repeats exactly.  It feeds
        # values one at a time, because GK's batch path sweeps too.
        data = rng.uniform(0, 1, 5_000).tolist()

        def summary_passes(factory):
            """Whole-summary operations while ingesting *data* value by
            value: a ``list.insert`` shifts a summary list's tail, and a
            ``_flush`` or ``_compress`` call sweeps it once."""
            sketch = factory(epsilon=0.01)
            passes = 0

            def profile(frame, event, arg):
                nonlocal passes
                if event == "c_call":
                    if arg.__name__ == "insert" and isinstance(
                        getattr(arg, "__self__", None), list
                    ):
                        passes += 1
                elif event == "call" and frame.f_code.co_name in (
                    "_flush", "_compress",
                ):
                    passes += 1

            sys.setprofile(profile)
            try:
                for value in data:
                    sketch.update(value)
            finally:
                sys.setprofile(None)
            return passes

        # 2 per value plus a compress per 50 values, against a flush
        # and a compress per 50-value buffer.
        assert summary_passes(GKSketch) == 2 * len(data) + len(data) // 50
        assert summary_passes(GKArray) == 2 * (len(data) // 50)

    def test_space_sublinear(self, rng):
        sketch = GKArray(epsilon=0.01)
        sketch.update_batch(rng.uniform(0, 1, 100_000))
        sketch.quantile(0.5)  # force a flush
        assert sketch.num_tuples < 2_000


class TestLifecycle:
    def test_merge(self, rng):
        a, b = GKArray(0.02), GKArray(0.02)
        a.update_batch(rng.uniform(0, 1, 5_000))
        b.update_batch(rng.uniform(1, 2, 5_000))
        a.merge(b)
        assert a.count == 10_000
        assert a.quantile(0.25) < 1.0
        assert a.quantile(0.75) > 1.0

    def test_merge_with_buffered_other(self, rng):
        a, b = GKArray(0.02, buffer_size=100_000), GKArray(0.02, buffer_size=100_000)
        a.update_batch(rng.uniform(0, 1, 500))
        b.update_batch(rng.uniform(0, 1, 500))
        buffered_before = len(b._buffer)
        a.merge(b)
        assert a.count == 1_000
        # Other remains untouched (its buffer was copied, not flushed).
        assert len(b._buffer) == buffered_before

    def test_merge_wrong_type(self):
        with pytest.raises(IncompatibleSketchError):
            GKArray().merge(GKSketch())

    @pytest.mark.parametrize("cls", [GKSketch, GKArray])
    def test_merge_refuses_a_different_epsilon(self, cls, rng):
        a, b = cls(0.001), cls(0.2)
        # 2,100 leaves GKArray's buffer unflushed: a merge that moved
        # before refusing would show in its bytes.
        a.update_batch(rng.uniform(0, 1, 2_100))
        b.update_batch(rng.uniform(0, 1, 2_100))
        before = dumps(a), dumps(b)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
        assert (dumps(a), dumps(b)) == before

    def test_serialization_round_trip(self, rng):
        sketch = GKArray(epsilon=0.02)
        sketch.update_batch(rng.uniform(0, 100, 10_000))
        restored = loads(dumps(sketch))
        assert restored.count == sketch.count
        assert restored.quantile(0.5) == sketch.quantile(0.5)
