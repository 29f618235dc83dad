"""Unit tests for the runtime lock sanitizer.

Wrappers are constructed directly (this test module is not ``repro.*``,
so the instrumented factory would hand it raw primitives on purpose —
which is itself one of the tests below).
"""

import threading

import pytest

from repro.errors import LockOrderViolation, RaceViolation
from repro.sanitizer import LockMonitor, SanitizedLock, instrumented


def make_lock(monitor, label="test:0", reentrant=False):
    inner = threading.RLock() if reentrant else threading.Lock()
    return SanitizedLock(inner, monitor, label, reentrant)


class TestSanitizedLock:
    def test_context_manager_and_locked(self):
        monitor = LockMonitor()
        lock = make_lock(monitor)
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert monitor.held_uids() == (lock.uid,)
        assert not lock.locked()
        assert monitor.held_uids() == ()

    def test_failed_nonblocking_acquire_records_nothing(self):
        monitor = LockMonitor()
        lock = make_lock(monitor)
        grabbed = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                grabbed.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert grabbed.wait(timeout=5.0)
        assert lock.acquire(blocking=False) is False
        assert monitor.held_uids() == ()
        release.set()
        thread.join(timeout=5.0)

    def test_timed_acquire_returns_false_on_timeout(self):
        monitor = LockMonitor()
        lock = make_lock(monitor)
        lock.acquire()
        try:
            done = []

            def contender():
                done.append(lock.acquire(True, 0.05))

            thread = threading.Thread(target=contender)
            thread.start()
            thread.join(timeout=5.0)
            assert done == [False]
        finally:
            lock.release()

    def test_self_deadlock_raises_instead_of_hanging(self):
        monitor = LockMonitor()
        lock = make_lock(monitor)
        lock.acquire()
        try:
            with pytest.raises(LockOrderViolation, match="self-deadlock"):
                lock.acquire()
        finally:
            lock.release()

    def test_rlock_reentry_is_fine_and_records_no_edge(self):
        monitor = LockMonitor()
        lock = make_lock(monitor, reentrant=True)
        with lock:
            with lock:
                assert monitor.held_uids() == (lock.uid,)
            # Inner exit must not fully release.
            assert monitor.held_uids() == (lock.uid,)
        assert monitor.held_uids() == ()
        assert monitor.edges == {}


class TestLockOrderGraph:
    def test_nested_acquire_records_one_edge_with_witness(self):
        monitor = LockMonitor()
        outer = make_lock(monitor, "outer:1")
        inner = make_lock(monitor, "inner:2")
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert set(monitor.edges) == {(outer.uid, inner.uid)}
        witness = monitor.edges[(outer.uid, inner.uid)]
        assert witness.count == 3
        assert witness.thread == threading.current_thread().name
        monitor.assert_acyclic()  # consistent order: no complaint

    def test_cycle_detected_at_teardown(self):
        monitor = LockMonitor()
        a = make_lock(monitor, "a:1")
        b = make_lock(monitor, "b:2")
        with a:
            with b:
                pass
        # Timed acquires dodge the live closure check (they cannot
        # park forever) but still feed the graph...
        b.acquire()
        assert a.acquire(True, 1.0)
        a.release()
        b.release()
        # ...so teardown catches the ABBA shape.
        with pytest.raises(LockOrderViolation, match="cycle"):
            monitor.assert_acyclic()

    def test_blocking_acquire_that_closes_cycle_raises_live(self):
        monitor = LockMonitor()
        a = make_lock(monitor, "a:1")
        b = make_lock(monitor, "b:2")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation, match="cycle"):
                a.acquire()
        assert monitor.held_uids() == ()

    def test_live_cycle_message_names_only_the_closing_path(self):
        monitor = LockMonitor()
        a = make_lock(monitor, "a:1")
        b = make_lock(monitor, "b:2")
        c = make_lock(monitor, "c:3")
        d = make_lock(monitor, "d:4")
        with c:
            with d:
                pass
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation) as caught:
                a.acquire()
        message = str(caught.value)
        assert message.endswith(
            f"a:1 -> b:2 [{threading.current_thread().name} at "
            f"{monitor.edges[(a.uid, b.uid)].site}]"
        )
        assert "c:3" not in message and "d:4" not in message

    def test_edges_are_per_instance_not_per_site(self):
        """Two locks from the same source line are distinct vertices."""
        monitor = LockMonitor()
        shard_locks = [make_lock(monitor, "shard:9") for _ in range(2)]
        with shard_locks[0]:
            with shard_locks[1]:
                pass
        # Opposite nesting over *different* instances would be a real
        # cycle; same-instance reasoning by label would miss it.
        with shard_locks[1]:
            with pytest.raises(LockOrderViolation):
                shard_locks[0].acquire()


class TestWatchpoints:
    class Plain:
        def __init__(self):
            self.value = 0

    def test_single_thread_access_is_not_a_race(self):
        monitor = LockMonitor()
        obj = self.Plain()
        try:
            monitor.watch(obj, "value")
            for _ in range(10):
                obj.value += 1
            assert obj.value == 10
            monitor.verify()
        finally:
            monitor.unwatch_all()

    def test_unsynchronized_cross_thread_write_is_a_race(self):
        monitor = LockMonitor()
        obj = self.Plain()
        try:
            monitor.watch(obj, "value")
            obj.value += 1

            def writer():
                obj.value += 1

            thread = threading.Thread(target=writer, name="racer")
            thread.start()
            thread.join(timeout=5.0)
            assert monitor.races
            assert monitor.races[0].attr == "value"
            with pytest.raises(RaceViolation, match="value"):
                monitor.verify()
        finally:
            monitor.unwatch_all()

    def test_common_lock_suppresses_the_race(self):
        monitor = LockMonitor()
        guard = make_lock(monitor, "guard:1")
        obj = self.Plain()
        try:
            monitor.watch(obj, "value")
            with guard:
                obj.value += 1

            def writer():
                with guard:
                    obj.value += 1

            thread = threading.Thread(target=writer)
            thread.start()
            thread.join(timeout=5.0)
            with guard:  # even the assert must follow the discipline
                assert obj.value == 2
            monitor.verify()
        finally:
            monitor.unwatch_all()

    def test_unwatch_all_removes_the_descriptor(self):
        monitor = LockMonitor()
        obj = self.Plain()
        monitor.watch(obj, "value")
        assert isinstance(type(obj).__dict__["value"], property)
        monitor.unwatch_all()
        assert "value" not in type(obj).__dict__


class TestFaultAudit:
    class Boom(Exception):
        pass

    class FakeInjector:
        def __init__(self):
            self.sites = []

        def check(self, site):
            self.sites.append(site)
            if site == "boom":
                raise TestFaultAudit.Boom(site)

    def test_fault_under_lock_is_recorded(self):
        monitor = LockMonitor()
        lock = make_lock(monitor, "wal:42")
        injector = monitor.wrap_fault(self.FakeInjector())
        with lock:
            with pytest.raises(self.Boom):
                injector.check("boom")
        assert len(monitor.faults_under_lock) == 1
        audit = monitor.faults_under_lock[0]
        assert audit.site == "boom"
        assert audit.locks == ("wal:42",)
        # A report, not a failure: verify stays green.
        monitor.verify()

    def test_fault_with_no_lock_held_is_not_recorded(self):
        monitor = LockMonitor()
        injector = monitor.wrap_fault(self.FakeInjector())
        with pytest.raises(self.Boom):
            injector.check("boom")
        assert monitor.faults_under_lock == []
        assert injector.sites == ["boom"]

    def test_passthrough_when_fault_does_not_fire(self):
        monitor = LockMonitor()
        injector = monitor.wrap_fault(self.FakeInjector())
        injector.check("quiet")
        assert injector.sites == ["quiet"]
        assert monitor.faults_under_lock == []


class TestInstrumented:
    def test_repro_frames_get_wrappers_others_do_not(self):
        monitor = LockMonitor()
        repro_ns = {"__name__": "repro.fake.module"}
        other_ns = {"__name__": "tests.somewhere"}
        code = "made = (threading.Lock(), threading.RLock())"
        with instrumented(monitor):
            for namespace in (repro_ns, other_ns):
                namespace["threading"] = threading
                exec(compile(code, "<corpus>", "exec"), namespace)
        lock, rlock = repro_ns["made"]
        assert isinstance(lock, SanitizedLock) and not lock.reentrant
        assert isinstance(rlock, SanitizedLock) and rlock.reentrant
        assert "repro.fake.module" in lock.label
        for raw in other_ns["made"]:
            assert not isinstance(raw, SanitizedLock)

    def test_factories_are_restored_on_exit(self):
        before = (threading.Lock, threading.RLock)
        with instrumented(LockMonitor()):
            assert threading.Lock is not before[0]
        assert (threading.Lock, threading.RLock) == before


class TestFixture:
    def test_lock_sanitizer_fixture_sees_repro_locks(self, lock_sanitizer):
        import numpy as np

        from repro.core import DDSketch
        from repro.parallel import ShardedSketch

        sharded = ShardedSketch(lambda: DDSketch(alpha=0.02), n_shards=4)
        sharded.update_batch(np.linspace(1.0, 2.0, 256))
        sharded.quantile(0.5)
        assert lock_sanitizer.edges, "a view rebuild nests cache -> meta"
        labels = {
            lock.label for lock in lock_sanitizer._locks.values()
        }
        assert any("repro.parallel.sharded" in label for label in labels)
