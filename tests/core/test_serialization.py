"""Unit tests for sketch serialization.

Registry-driven: every sketch registered in ``repro.core.registry``
must have a codec and round-trip *bit-identically*, so a newly added
sketch cannot silently escape the serving system's snapshot path.
"""

import numpy as np
import pytest

from repro.core import SKETCH_CLASSES, dumps, loads, make_sketch, paper_config
from repro.core import serialization
from repro.core.base import QuantileSketch
from repro.errors import SerializationError

ALL_NAMES = sorted(SKETCH_CLASSES)
QS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def fill(name: str, rng: np.random.Generator) -> QuantileSketch:
    sketch = paper_config(name, seed=7)
    n = 2_000 if name == "gk" else 30_000
    sketch.update_batch(1.0 + rng.pareto(1.0, n))
    return sketch


class TestRegistryCoverage:
    """The codec table must track the sketch registry exactly."""

    def test_every_registered_sketch_has_a_codec(self):
        missing = sorted(set(SKETCH_CLASSES) - set(serialization._CODECS))
        assert not missing, (
            f"sketches registered in repro.core.registry but lacking a "
            f"serialization codec: {missing} — add an encoder/decoder "
            f"pair to repro.core.serialization._CODECS"
        )

    def test_codec_classes_match_registry_classes(self):
        mismatched = sorted(
            name
            for name in SKETCH_CLASSES
            if name in serialization._CODECS
            and serialization._CODECS[name][0] is not SKETCH_CLASSES[name]
        )
        assert not mismatched, (
            f"codec bound to a different class than the registry for: "
            f"{mismatched}"
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip_is_bit_identical(self, name, rng):
        """decode(encode(s)) must re-encode to the same bytes.

        Bit-identity is what makes store snapshots deterministic: the
        service layer re-snapshots restored stores and expects the
        exact payload back.
        """
        sketch = fill(name, rng)
        payload = dumps(sketch)
        again = dumps(loads(payload))
        assert again == payload, (
            f"sketch {name!r} does not round-trip bit-identically "
            f"through its codec ({len(payload)} bytes in, "
            f"{len(again)} bytes out)"
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_empty_round_trip_is_bit_identical(self, name):
        payload = dumps(make_sketch(name))
        assert dumps(loads(payload)) == payload, (
            f"empty {name!r} does not round-trip bit-identically"
        )


@pytest.mark.parametrize("name", ALL_NAMES)
class TestRoundTrip:
    def test_quantiles_survive(self, name, rng):
        sketch = fill(name, rng)
        restored = loads(dumps(sketch))
        assert type(restored) is type(sketch)
        assert restored.count == sketch.count
        for q in QS:
            assert restored.quantile(q) == pytest.approx(
                sketch.quantile(q), rel=1e-9
            ), q

    def test_bookkeeping_survives(self, name, rng):
        sketch = fill(name, rng)
        restored = loads(dumps(sketch))
        assert restored.min == sketch.min
        assert restored.max == sketch.max
        assert restored.size_bytes() == sketch.size_bytes()

    def test_restored_sketch_accepts_updates(self, name, rng):
        sketch = fill(name, rng)
        restored = loads(dumps(sketch))
        restored.update_batch(1.0 + rng.pareto(1.0, 1_000))
        assert restored.count == sketch.count + 1_000

    def test_restored_sketch_merges(self, name, rng):
        sketch = fill(name, rng)
        restored = loads(dumps(sketch))
        other = fill(name, np.random.default_rng(99))
        restored.merge(other)
        assert restored.count == sketch.count + other.count

    def test_empty_sketch_round_trips(self, name, rng):
        sketch = make_sketch(name)
        restored = loads(dumps(sketch))
        assert restored.is_empty


@pytest.mark.parametrize("name", ALL_NAMES)
class TestRestoreEquivalence:
    """Restore-then-continue must equal never-interrupted.

    This is the property crash recovery stands on (DESIGN.md §11): a
    sketch checkpointed mid-stream and fed the remaining suffix after
    restore must be *bit-identical* to one that never left memory.
    Format v2 exists for this — randomized sketches carry their RNG
    state, buffered sketches their unflushed buffers.
    """

    def _stream(self, name, rng):
        head = 1_000 if name == "gk" else 20_000
        tail = 500 if name == "gk" else 5_000
        return 1.0 + rng.pareto(1.0, head + tail), head

    def test_restored_continuation_is_bit_identical(self, name, rng):
        data, head = self._stream(name, rng)
        self._check_continuation(name, data, head)

    @pytest.mark.parametrize("cut", [1, 37, 1_237])
    def test_restored_continuation_at_odd_cuts(self, name, cut, rng):
        """Cuts off GK's 50-insert compression period: a GK that kept
        its own insert counter, which the codec did not carry, diverged
        here while every multiple of 50 hid it."""
        self._check_continuation(name, 1.0 + rng.pareto(1.0, cut + 3_000), cut)

    @staticmethod
    def _check_continuation(name, data, head):
        # The control sees the same batch boundaries as the
        # interrupted run: recovery replays the journaled batches
        # as-journaled, and float accumulation (e.g. Moments power
        # sums) is not associative across different batchings.
        continuous = paper_config(name, seed=7)
        continuous.update_batch(data[:head])
        continuous.update_batch(data[head:])

        interrupted = paper_config(name, seed=7)
        interrupted.update_batch(data[:head])
        restored = loads(dumps(interrupted))
        restored.update_batch(data[head:])

        assert dumps(restored) == dumps(continuous), (
            f"{name!r}: snapshot/restore mid-stream diverges from the "
            f"continuous run — serialized state is incomplete (RNG "
            f"state or pending buffers?)"
        )

    def test_encoding_midstream_does_not_perturb(self, name, rng):
        """dumps() must be a pure read: no flush, no RNG draw."""
        data, head = self._stream(name, rng)
        observed = paper_config(name, seed=7)
        control = paper_config(name, seed=7)
        observed.update_batch(data[:head])
        control.update_batch(data[:head])
        dumps(observed)  # a checkpoint passing by
        observed.update_batch(data[head:])
        control.update_batch(data[head:])
        assert dumps(observed) == dumps(control), (
            f"{name!r}: encoding the sketch changed its future — the "
            f"codec must not mutate (e.g. flush buffers) at encode "
            f"time"
        )


class TestFormat:
    def test_magic_checked(self):
        with pytest.raises(SerializationError):
            loads(b"XXXX" + b"\x01\x03kll")

    def test_truncation_detected(self, rng):
        payload = dumps(fill("ddsketch", rng))
        with pytest.raises(SerializationError):
            loads(payload[: len(payload) // 2])

    def test_trailing_garbage_detected(self, rng):
        payload = dumps(fill("kll", rng))
        with pytest.raises(SerializationError):
            loads(payload + b"\x00")

    def test_unknown_version(self, rng):
        payload = bytearray(dumps(fill("moments", rng)))
        payload[4] = 99
        with pytest.raises(SerializationError):
            loads(bytes(payload))

    def test_payload_is_compact(self, rng):
        # A sketch's byte-stream should be near its size_bytes figure,
        # not the raw stream size.
        sketch = fill("ddsketch", rng)
        payload = dumps(sketch)
        assert len(payload) < 16 * 8 * sketch.count / 100
