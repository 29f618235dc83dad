"""DurabilityManager: journal → checkpoint → recover scenarios."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.codec import canonical_json
from repro.durability.faults import CrashInjector, InjectedIOError
from repro.durability.manager import (
    DurabilityManager,
    decode_record,
    encode_record,
    read_wal_records,
)
from repro.durability.wal import FlushPolicy, list_segments
from repro.errors import WALError
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry, default_sketch_factory
from tests.conftest import all_json_values


def make_registry(clock):
    return MetricRegistry(clock=clock)


def snapshot_all(registry):
    return {
        (key.name, tuple(sorted((key.as_dict() or {}).items()))):
            registry.get(key.name, key.as_dict()).snapshot()
        for key in registry.keys()
    }


def ingest(
    manager, registry, clock, batches, metric="lat", start=0, size=20
):
    """Journal + apply *batches* ops of *size* values, mirroring the
    server's path."""
    rng = np.random.default_rng(1234 + start)
    for _ in range(batches):
        values = (1.0 + rng.pareto(1.0, size)).tolist()
        seq, ts, now = manager.journal(metric, {"svc": "api"}, values, None)
        registry.record(metric, values, ts, {"svc": "api"}, now_ms=now)
        clock.advance(25.0)
    return registry


class TestRecoverFresh:
    def test_empty_data_dir(self, tmp_path):
        clock = ManualClock(1_000_000.0)
        with DurabilityManager(tmp_path, clock=clock) as manager:
            report = manager.recover(make_registry(clock))
            assert report.as_dict() == {
                "checkpoint_seq": 0,
                "checkpoint_stores": 0,
                "records_replayed": 0,
                "replay_rejected": 0,
                "torn_bytes_repaired": 0,
                "last_seq": 0,
            }
            assert manager.last_recovery is report


class TestRecoverRoundTrip:
    def _run(self, tmp_path, batches_before=30, batches_after=12):
        clock = ManualClock(1_000_000.0)
        manager = DurabilityManager(tmp_path, clock=clock)
        manager.wal.open()
        registry = make_registry(clock)
        ingest(manager, registry, clock, batches_before)
        manager.checkpoint_now(registry)
        ingest(manager, registry, clock, batches_after, start=1)
        manager.wal.sync()
        manager.close()
        return clock, snapshot_all(registry)

    def test_checkpoint_plus_suffix(self, tmp_path):
        clock, expected = self._run(tmp_path)
        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            recovered = make_registry(fresh_clock)
            report = manager.recover(recovered)
            assert report.checkpoint_seq == 30
            assert report.records_replayed == 12
            assert report.last_seq == 42
            assert snapshot_all(recovered) == expected

    def test_gk_tenant_recovers_byte_for_byte(self, tmp_path):
        """37-value batches leave GK between compressions at the
        checkpoint; the recovered summary must keep its schedule."""
        factory = default_sketch_factory("gk")
        clock = ManualClock(1_000_000.0)
        manager = DurabilityManager(tmp_path, clock=clock)
        manager.wal.open()
        registry = MetricRegistry(sketch_factory=factory, clock=clock)
        ingest(manager, registry, clock, 5, size=37)
        manager.checkpoint_now(registry)
        ingest(manager, registry, clock, 7, start=1, size=37)
        manager.wal.sync()
        manager.close()
        expected = snapshot_all(registry)

        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            recovered = MetricRegistry(sketch_factory=factory, clock=fresh_clock)
            report = manager.recover(recovered)
            assert (report.checkpoint_seq, report.records_replayed) == (5, 7)
            assert snapshot_all(recovered) == expected

    def test_wal_only_no_checkpoint(self, tmp_path):
        clock = ManualClock(1_000_000.0)
        manager = DurabilityManager(tmp_path, clock=clock)
        manager.wal.open()
        registry = make_registry(clock)
        ingest(manager, registry, clock, 17)
        manager.wal.sync()
        manager.close()
        expected = snapshot_all(registry)

        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            recovered = make_registry(fresh_clock)
            report = manager.recover(recovered)
            assert report.checkpoint_seq == 0
            assert report.records_replayed == 17
            assert snapshot_all(recovered) == expected

    def test_recover_continues_sequence(self, tmp_path):
        clock, _ = self._run(tmp_path)
        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            recovered = make_registry(fresh_clock)
            manager.recover(recovered)
            seq, _, _ = manager.journal("lat", None, [1.0], None)
            assert seq == 43

    def test_torn_tail_repaired_and_reported(self, tmp_path):
        clock, _ = self._run(tmp_path)
        segment = list_segments(tmp_path)[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])
        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            report = manager.recover(make_registry(fresh_clock))
            assert report.torn_bytes_repaired > 0
            assert report.records_replayed == 11  # last record torn off
            assert report.last_seq == 41

    def test_invalid_checkpoint_falls_back_to_replay(self, tmp_path):
        clock, expected = self._run(tmp_path)
        # Corrupt every checkpoint: recovery must rebuild from seq 1.
        # The WAL suffix before the checkpoint was truncated, so this
        # only works when truncation hasn't happened — rerun without
        # a checkpoint to prove the fallback ordering instead.
        for ckpt in tmp_path.glob("checkpoint-*.ckpt"):
            payload = bytearray(ckpt.read_bytes())
            payload[-1] ^= 0xFF
            ckpt.write_bytes(bytes(payload))
        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            recovered = make_registry(fresh_clock)
            report = manager.recover(recovered)
            assert report.checkpoint_seq == 0
            # Segments below the watermark were truncated at
            # checkpoint time; with no valid checkpoint the replay
            # starts at the oldest surviving segment.
            assert report.records_replayed == 12

    def test_replay_rejected_counted(self, tmp_path):
        clock = ManualClock(1_000_000.0)
        manager = DurabilityManager(tmp_path, clock=clock)
        manager.wal.open()
        registry = make_registry(clock)
        ingest(manager, registry, clock, 3)
        # Journal a record the registry will reject on apply (NaN).
        manager.journal("lat", None, [float("nan")], None)
        manager.wal.sync()
        manager.close()

        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as manager:
            report = manager.recover(make_registry(fresh_clock))
            assert report.records_replayed == 4
            assert report.replay_rejected == 1


class TestJournalEncoding:
    def test_payload_pins_ts_and_now(self, tmp_path):
        clock = ManualClock(5_000.0)
        with DurabilityManager(tmp_path, clock=clock) as manager:
            seq, ts, now = manager.journal(
                "lat", {"a": "b"}, [1.5, float("inf")], None
            )
            assert (seq, ts, now) == (1, 5_000.0, 5_000.0)
            clock.advance(100.0)
            seq, ts, now = manager.journal("lat", None, [2.0], 42.0)
            assert (seq, ts, now) == (2, 42.0, 5_100.0)
            manager.wal.sync()
            payloads = list(manager.wal.replay())
        first = decode_record(payloads[0][1], 1)
        assert first.ts == 5_000.0
        assert first.now == 5_000.0
        assert first.values.dtype == np.float64
        assert first.values.tolist() == [1.5, float("inf")]
        second = decode_record(payloads[1][1], 2)
        assert second.ts == 42.0
        assert second.now == 5_100.0
        assert second.tags is None


def json_payload(metric, tags, values, ts, now):
    """The record payload ``journal`` wrote before the values tail: one
    all-JSON body, non-finite floats as sentinel objects."""
    return canonical_json({
        "metric": metric, "tags": tags, "ts": ts, "now": now,
        "values": all_json_values(values),
    })


class TestWalGenerations:
    """Logs written before the values tail replay to the same bytes."""

    BATCHES = [
        ("lat", {"svc": "api"}, [1.5, -0.0, 5e-324, 1e308]),
        ("lat", None, [2.0, math.inf, 3.0]),  # rejected at apply
        ("rps", None, [math.nan]),  # rejected at apply
        *(
            ("lat", {"svc": "api"}, batch.tolist())
            for batch in 1.0 + np.random.default_rng(77).pareto(1.0, (9, 20))
        ),
    ]

    def _write(self, data_dir, tail_for):
        """Journal BATCHES; batch *i* gets a tail payload iff
        ``tail_for(i)``, else the all-JSON one."""
        clock = ManualClock(1_000_000.0)
        with DurabilityManager(data_dir, clock=clock) as manager:
            for index, (metric, tags, values) in enumerate(self.BATCHES):
                if tail_for(index):
                    manager.journal(metric, tags, np.array(values), None)
                else:
                    now = clock.now_ms()
                    manager.wal.append(
                        json_payload(metric, tags, values, now, now)
                    )
                clock.advance(25.0)
        return clock.now_ms()

    def _recover(self, data_dir, now_ms):
        clock = ManualClock(now_ms)
        registry = make_registry(clock)
        with DurabilityManager(data_dir, clock=clock) as manager:
            report = manager.recover(registry)
        assert len(list_segments(data_dir)) == 1
        return report.as_dict(), snapshot_all(registry)

    def test_json_tail_and_mixed_logs_recover_identically(self, tmp_path):
        recovered = {}
        for label, tail_for in (
            ("tail", lambda index: True),
            ("json", lambda index: False),
            ("mixed", lambda index: index % 2 == 0),
        ):
            now_ms = self._write(tmp_path / label, tail_for)
            recovered[label] = self._recover(tmp_path / label, now_ms)
        report, snapshots = recovered["tail"]
        assert report["records_replayed"] == len(self.BATCHES)
        assert report["replay_rejected"] == 2
        assert snapshots
        assert recovered["json"] == recovered["tail"]
        assert recovered["mixed"] == recovered["tail"]


class TestMalformedRecordRefused:
    """A CRC-valid payload that is not a record stops recovery with a
    typed error naming it; the record was acked, so it is not skipped."""

    @pytest.mark.parametrize("payload", [
        b"{}",  # escaped as KeyError('metric')
        json_payload("lat", None, [1.0], 1.0, 1.0).replace(
            b"[1.0]", b'"abc"'),  # ValueError
        json_payload("lat", 3, [1.0], 1.0, 1.0),  # AttributeError
        json_payload("lat", None, [1.0], "x", 1.0),  # ValueError
        encode_record("lat", None, np.ones(3), 1.0, 1.0)[:-4],
        b"\xf6junk",
    ])
    def test_recover_raises_walerror_naming_the_sequence(
        self, tmp_path, payload
    ):
        clock = ManualClock(1_000_000.0)
        with DurabilityManager(tmp_path, clock=clock) as manager:
            ingest(manager, make_registry(clock), clock, 2)
            manager.wal.append(payload)
        with DurabilityManager(tmp_path, clock=clock) as manager:
            with pytest.raises(WALError, match="WAL record 3"):
                manager.recover(make_registry(clock))
        with pytest.raises(WALError, match="WAL record 3"):
            list(read_wal_records(tmp_path))


class TestCheckpointCadence:
    """Cadence is pure clock arithmetic — no sleeps anywhere."""

    def _manager(self, tmp_path, clock, interval=10_000.0):
        manager = DurabilityManager(
            tmp_path, clock=clock, checkpoint_interval_ms=interval
        )
        manager.wal.open()
        return manager

    def test_not_due_with_nothing_journaled(self, tmp_path):
        clock = ManualClock(0.0)
        manager = self._manager(tmp_path, clock)
        try:
            clock.advance(1_000_000.0)
            assert not manager.checkpoint_due()
        finally:
            manager.close()

    def test_due_follows_interval_exactly(self, tmp_path):
        clock = ManualClock(0.0)
        manager = self._manager(tmp_path, clock, interval=10_000.0)
        registry = make_registry(clock)
        try:
            manager.recover(registry)  # arms the cadence timer
            ingest(manager, registry, clock, 1)  # advances 25ms
            assert not manager.checkpoint_due()
            clock.advance(10_000.0 - 25.0 - 1.0)
            assert not manager.checkpoint_due()
            clock.advance(1.0)
            assert manager.checkpoint_due()
            manager.checkpoint_now(registry)
            assert not manager.checkpoint_due()
            # Due again only after new work AND another full interval.
            clock.advance(20_000.0)
            assert not manager.checkpoint_due()
            ingest(manager, registry, clock, 1, start=2)
            assert manager.checkpoint_due()
        finally:
            manager.close()

    def test_interval_zero_disables_cadence(self, tmp_path):
        clock = ManualClock(0.0)
        manager = self._manager(tmp_path, clock, interval=0.0)
        registry = make_registry(clock)
        try:
            manager.recover(registry)
            ingest(manager, registry, clock, 5)
            clock.advance(1e9)
            assert not manager.checkpoint_due()
        finally:
            manager.close()

    def test_negative_interval_rejected(self, tmp_path):
        from repro.errors import DurabilityError

        with pytest.raises(DurabilityError):
            DurabilityManager(tmp_path, checkpoint_interval_ms=-1.0)

    def test_checkpoint_truncates_wal(self, tmp_path):
        clock = ManualClock(0.0)
        manager = self._manager(tmp_path, clock)
        registry = make_registry(clock)
        try:
            manager.recover(registry)
            ingest(manager, registry, clock, 10)
            manager.checkpoint_now(registry)
            assert manager.last_checkpoint_seq == 10
            assert list(manager.wal.replay(after_seq=10)) == []
            # Old segments are gone: replay from zero starts past the
            # watermark.
            assert [s for s, _ in manager.wal.replay()] == []
        finally:
            manager.close()

    def test_stats_shape(self, tmp_path):
        clock = ManualClock(0.0)
        manager = self._manager(tmp_path, clock)
        registry = make_registry(clock)
        try:
            manager.recover(registry)
            ingest(manager, registry, clock, 4)
            manager.checkpoint_now(registry)
            stats = manager.stats()
            assert stats == {
                "durability_last_seq": 4,
                "durability_pending_sync": 0,
                "durability_checkpoint_seq": 4,
                "durability_records_journaled": 4,
                "durability_checkpoints_written": 1,
            }
        finally:
            manager.close()


class TestFaultsThroughManager:
    def test_checkpoint_truncate_fault_leaves_recoverable_state(
        self, tmp_path
    ):
        clock = ManualClock(0.0)
        manager = DurabilityManager(
            tmp_path,
            clock=clock,
            fault=CrashInjector("checkpoint.truncate"),
            flush_policy=FlushPolicy(mode="always"),
        )
        manager.wal.open()
        registry = make_registry(clock)
        ingest(manager, registry, clock, 8)
        expected = snapshot_all(registry)
        with pytest.raises(InjectedIOError):
            manager.checkpoint_now(registry)
        manager.close()

        # Checkpoint published but WAL not truncated: recovery must
        # still converge (replay past the watermark is empty).
        fresh_clock = ManualClock(clock.now_ms())
        with DurabilityManager(tmp_path, clock=fresh_clock) as recovered:
            target = make_registry(fresh_clock)
            report = recovered.recover(target)
            assert report.checkpoint_seq == 8
            assert report.records_replayed == 0
            assert snapshot_all(target) == expected
