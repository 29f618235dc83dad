"""`TrafficHarness`: one real server + clients wired for determinism.

The harness owns everything a traffic scenario needs and wires it onto
**one shared** :class:`~repro.service.clock.ManualClock`:

* a :class:`~repro.service.registry.MetricRegistry` whose stores
  partition on that clock,
* a real TCP :class:`~repro.service.server.QuantileServer` (bounded
  ingest queue, one drain worker, optional durability) serving it,
* :class:`~repro.service.client.QuantileClient` instances whose retry
  backoff *advances* the manual clock instead of sleeping,
* a :class:`~repro.obs.telemetry.Telemetry` sink shared by all of the
  above.

Determinism contract
--------------------
Scenarios drive real threads (connection handlers, the drain worker), so
determinism is a discipline, not a given.  The harness enforces the two
rules that make it hold:

1. **The clock only advances at barriers.**  :meth:`advance` flushes
   the ingest queue first, so no drain-side telemetry span is ever in
   flight across a clock step — under a manual telemetry clock every
   span duration is exactly ``0.0`` and histogram summaries are pure
   functions of the request sequence.
2. **Overload is produced by rendezvous, not by racing.**  The
   :meth:`overload` helper runs the parked-worker protocol
   (``pause -> one batch -> wait_parked``), after which the
   queue's free capacity is *exact*: the next ``queue_size`` sends are
   accepted and everything beyond is shed, byte-for-byte the same
   every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.registry import DEFAULT_SEED
from repro.errors import ServerOverloadedError, ServiceUnavailableError
from repro.obs.telemetry import Telemetry
from repro.service.client import QuantileClient
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry
from repro.service.server import QuantileServer

#: Clock origin: far from zero so window arithmetic (now - window_ms)
#: never goes negative in any scenario.
START_MS = 1_000_000.0


class TrafficHarness:
    """One deterministic service-under-load fixture.

    Parameters
    ----------
    seed:
        Seeds the harness RNG (value draws, tenant picks).
    queue_size:
        Server ingest queue bound — the knob overload scenarios push
        against.
    durability_dir:
        When set, the server journals every accepted ingest to a WAL
        under this directory (checkpoint cadence disabled — scenarios
        checkpoint explicitly if at all).
    final_checkpoint:
        Passed through to the server; recording harnesses for what-if
        replay set ``False`` so :meth:`stop` leaves the full WAL
        record stream on disk.
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        queue_size: int = 64,
        durability_dir: str | Path | None = None,
        final_checkpoint: bool = True,
    ) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.clock = ManualClock(START_MS)
        self.telemetry = Telemetry(clock=self.clock)
        self.registry = MetricRegistry(
            clock=self.clock, telemetry=self.telemetry
        )
        #: Store partition width; scenario "ticks" advance by this so
        #: one tick lands in one partition.
        self.partition_ms = self.registry.partition_ms
        self.durability = None
        if durability_dir is not None:
            # Deferred import keeps the workload layer usable without
            # the durability package in the picture, mirroring the
            # server's duck-typed reference.
            from repro.durability import DurabilityManager

            self.durability = DurabilityManager(
                durability_dir,
                clock=self.clock,
                checkpoint_interval_ms=0.0,
                telemetry=self.telemetry,
            )
        self.server = QuantileServer(
            registry=self.registry,
            ingest_queue_size=queue_size,
            telemetry=self.telemetry,
            durability=self.durability,
            final_checkpoint=final_checkpoint,
        )
        self.queue_size = int(queue_size)
        self.offered_batches = 0
        self.offered_values = 0
        self.accepted_values = 0
        self.shed_batches = 0
        self.shed_values = 0
        self.failed_batches = 0
        self._clients: list[QuantileClient] = []
        self.client: QuantileClient | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "TrafficHarness":
        self.server.start()
        self.client = self.new_client()
        return self

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        self.client = None
        self.server.stop()

    def __enter__(self) -> "TrafficHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def new_client(
        self,
        retries: int = 2,
        backoff_ms: float = 50.0,
        jitter: float = 0.0,
        jitter_seed: int | None = None,
    ) -> QuantileClient:
        """A client on the shared clock/telemetry, tracked for close.

        Backoff runs on the manual clock, so a client retrying into a
        dead server *advances* scenario time deterministically instead
        of sleeping.
        """
        host, port = self.server.address
        client = QuantileClient(
            host,
            port,
            retries=retries,
            backoff_ms=backoff_ms,
            jitter=jitter,
            jitter_seed=(
                self.seed + len(self._clients)
                if jitter_seed is None
                else jitter_seed
            ),
            clock=self.clock,
            telemetry=self.telemetry,
        )
        self._clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def ingest(
        self,
        metric: str,
        values: Sequence[float] | np.ndarray,
        tags: Mapping[str, str] | None = None,
        client: QuantileClient | None = None,
    ) -> bool:
        """Offer one batch; returns acceptance, counting sheds as data.

        A shed (``overloaded``) response is the scenario observable —
        it increments the shed bookkeeping and returns ``False``; a
        transport-dead server counts a failed batch and returns
        ``False`` too (reconnect-storm scenarios assert on it).
        """
        batch = np.asarray(values, dtype=np.float64)
        sender = client if client is not None else self.client
        assert sender is not None, "harness not started"
        self.offered_batches += 1
        self.offered_values += len(batch)
        try:
            accepted = sender.ingest(metric, batch, tags=tags)
        except ServerOverloadedError:
            self.shed_batches += 1
            self.shed_values += len(batch)
            return False
        except ServiceUnavailableError:
            self.failed_batches += 1
            return False
        self.accepted_values += accepted
        return True

    def barrier(self) -> None:
        """Flush the ingest queue: all accepted batches are applied."""
        assert self.client is not None, "harness not started"
        self.client.flush()

    def advance(self, ms: float) -> None:
        """Barrier, then step the shared clock (the only clock writer)."""
        self.barrier()
        self.clock.advance(ms)

    def overload(self) -> None:
        """Deterministic-overload rendezvous: park the drain worker.

        After this returns, the server's drain worker holds exactly one
        in-flight batch at the closed gate and the queue is empty — so
        free capacity is exactly ``queue_size``, and shed counts
        downstream are exact.  The parker batch is offered through the
        normal bookkeeping (it is real accepted traffic).
        """
        self.server.pause_ingest()
        self.ingest("overload.parker00", [1.0])
        parked = self.server.wait_parked()
        assert parked, "the drain worker failed to park at the gate"

    def release(self) -> float:
        """Reopen the gate and drain the backlog; returns clock ms spent.

        The barrier is thread-joining, not time-passing, so the return
        value is ``0.0`` unless a client retry backoff advanced the
        clock on the way.
        """
        before = self.clock.now_ms()
        self.server.resume_ingest()
        self.barrier()
        return self.clock.now_ms() - before

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    @property
    def shed_rate(self) -> float:
        """Shed fraction of offered values (0.0 when nothing offered)."""
        if not self.offered_values:
            return 0.0
        return self.shed_values / self.offered_values

    def traffic(self) -> dict[str, int]:
        """The traffic ledger every scenario report embeds."""
        return {
            "offered_batches": self.offered_batches,
            "offered_values": self.offered_values,
            "accepted_values": self.accepted_values,
            "shed_batches": self.shed_batches,
            "shed_values": self.shed_values,
            "failed_batches": self.failed_batches,
        }

    def counter(self, name: str) -> int:
        """Current value of one telemetry counter (0 if never touched)."""
        snapshot = self.telemetry.snapshot()
        return int(snapshot["counters"].get(name, 0))

    def server_stat(self, field: str) -> int:
        """One field of the server's ``stats`` op, over the wire."""
        assert self.client is not None, "harness not started"
        return int(self.client.stats()[field])
