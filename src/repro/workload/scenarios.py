"""The scenario catalog: production traffic shapes, asserted as SLOs.

Each scenario is a deterministic closed loop: seeded traffic generators
(:mod:`repro.data.traffic`) drive the real TCP server through the real
client on one shared :class:`~repro.service.clock.ManualClock`, and the
scenario ends by asserting SLOs (:mod:`repro.workload.slo`) over what
the service actually did.  Same seed, same report — byte for byte —
which is what the ``python -m repro.workload`` determinism gate checks
by running every scenario twice.

Catalog (one scenario per production failure shape):

===================  ==================================================
``diurnal``          A compressed day of raised-cosine load with peak-
                     hour latency degradation; threshold + burn-rate
                     continuous queries must fire at the peak and stay
                     quiet at the trough.
``hot_tenant``       Zipf-skewed tenant traffic whose hottest tenant is
                     also degraded (the noisy neighbor); the top-k
                     continuous query must rank it first.
``flash_crowd``      A spike sized above queue capacity via the parked-
                     worker rendezvous; shed counts are exact, recovery
                     is immediate, and nothing journaled is lost.
``reconnect_storm``  The server restarts on a new port under live
                     clients; every client fails over (retry schedules
                     advance the manual clock, no sleeps), reconnects,
                     and pre-restart data survives in process.
``slow_consumer``    The drain stalls while a lagging reader holds an
                     unread response; queries must keep answering and
                     the backlog must drain losslessly on release.
``proxy``            The same traffic through the cluster front end:
                     ingest via the routing proxy into a replicated
                     3-node :class:`~repro.cluster.local.LocalCluster`,
                     ticked to anti-entropy convergence.
``whatif``           A recorded WAL replayed through altered sketch
                     configs (:mod:`repro.workload.whatif`); two
                     replays per config must be byte-identical.
===================  ==================================================

Every scenario takes ``(seed, fast)`` and returns the report object of
:func:`repro.workload.slo.scenario_report`; *fast* shrinks tick counts
for CI smoke.  Scenario time is manual — scenarios never sleep.
"""

from __future__ import annotations

import math
import shutil
import socket
import tempfile
from typing import Any, Callable

import numpy as np

from repro.core.registry import DEFAULT_SEED
from repro.data.traffic import (
    DiurnalCurve,
    FlashCrowd,
    LatencyValues,
    ZipfTenants,
)
from repro.errors import InvalidValueError
from repro.service import protocol
from repro.workload.harness import TrafficHarness
from repro.workload.slo import check, publish, scenario_report
from repro.workload.whatif import (
    WhatIfConfig,
    record_workload,
    replay_whatif,
)

# ----------------------------------------------------------------------
# diurnal
# ----------------------------------------------------------------------


def scenario_diurnal(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """A compressed day: load and latency follow the diurnal curve.

    One tick stands in for one hour.  Offered batches per tick follow a
    raised cosine; latency *values* degrade with load (scale 1x at the
    trough, 3x at the peak), so the threshold and burn-rate continuous
    queries registered up front must fire around the peak and stay
    quiet around the trough.
    """
    period = 12 if fast else 24
    peak_tick = (3 * period) // 4
    trough_tick = peak_tick - period // 2
    curve = DiurnalCurve(
        base=2.0, peak=6.0, period=period, peak_tick=peak_tick
    )
    tenants = ZipfTenants(n_tenants=4)
    values = LatencyValues()
    batch = 20
    with TrafficHarness(seed=seed, queue_size=512) as harness:
        client = harness.client
        assert client is not None
        tick_ms = harness.partition_ms
        threshold_id = client.cq_register(
            {
                "kind": "threshold",
                "metric": "lat.all",
                "q": 0.99,
                "op": "gt",
                "threshold": 500.0,
                "window_ms": 2 * tick_ms,
            }
        )
        client.cq_register(
            {
                "kind": "burn_rate",
                "metric": "lat.all",
                "objective_ms": 400.0,
                "target": 0.95,
                "fast_ms": 2 * tick_ms,
                "slow_ms": 4 * tick_ms,
                "factor": 2.0,
            }
        )
        fired_threshold: list[int] = []
        fired_burn: list[int] = []
        for tick in range(period):
            level = curve.level_at(tick)
            scale = 1.0 + 2.0 * (level - curve.base) / (
                curve.peak - curve.base
            )
            for _ in range(curve.batches_at(tick)):
                tenant = int(tenants.pick(1, harness.rng)[0])
                sample = values.sample(batch, harness.rng, scale=scale)
                harness.ingest("lat.all", sample)
                harness.ingest(tenants.name_of(tenant), sample)
            harness.advance(tick_ms)
            for result in client.cq_eval():
                if result["status"] != "firing":
                    continue
                if result["id"] == threshold_id:
                    fired_threshold.append(tick)
                else:
                    fired_burn.append(tick)
        peak_fires = sum(
            1 for tick in fired_threshold if abs(tick - peak_tick) <= 2
        )
        trough_fires = sum(
            1 for tick in fired_threshold if abs(tick - trough_tick) <= 1
        )
        metrics = {
            "period": period,
            "peak_tick": peak_tick,
            "trough_tick": trough_tick,
            "fired_threshold": fired_threshold,
            "fired_burn": fired_burn,
            "final_p99": client.quantile("lat.all", 0.99),
        }
        checks = [
            check("shed_values", harness.shed_values, "eq", 0),
            check("peak_p99_alerts", peak_fires, "ge", 1),
            check("trough_quiet", trough_fires, "eq", 0),
            check("burn_alerts", len(fired_burn), "ge", 1),
            check(
                "conservation",
                harness.server_stat("events_recorded"),
                "eq",
                harness.accepted_values,
            ),
        ]
        publish(harness.telemetry, "diurnal", checks)
        traffic = harness.traffic()
    return scenario_report(
        "diurnal", seed, fast, traffic, metrics, checks
    )


# ----------------------------------------------------------------------
# hot_tenant
# ----------------------------------------------------------------------


def scenario_hot_tenant(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """The noisy neighbor: the Zipf-hottest tenant is also degraded.

    Tenant 0 receives the largest traffic share *and* 4x latency; the
    top-k-by-tail-latency continuous query must rank it first, and the
    offered-traffic ledger must show the Zipf skew.
    """
    n_tenants = 6
    degraded = 0
    tenants = ZipfTenants(n_tenants=n_tenants, exponent=1.2)
    values = LatencyValues()
    ticks = 4 if fast else 8
    batches_per_tick = 12
    batch = 20
    with TrafficHarness(seed=seed, queue_size=512) as harness:
        client = harness.client
        assert client is not None
        client.cq_register(
            {
                "kind": "topk",
                "prefix": tenants.prefix,
                "k": 3,
                "q": 0.99,
                "window_ms": (ticks + 1) * harness.partition_ms,
            }
        )
        per_tenant = [0] * n_tenants
        for _tick in range(ticks):
            for pick in tenants.pick(batches_per_tick, harness.rng):
                tenant = int(pick)
                scale = 4.0 if tenant == degraded else 1.0
                harness.ingest(
                    tenants.name_of(tenant),
                    values.sample(batch, harness.rng, scale=scale),
                )
                per_tenant[tenant] += 1
            harness.advance(harness.partition_ms)
        ranking = client.cq_eval()[0]["tenants"]
        top_is_degraded = bool(
            ranking and ranking[0]["metric"] == tenants.name_of(degraded)
        )
        separation = (
            ranking[0]["value"] / ranking[1]["value"]
            if len(ranking) >= 2
            else 0.0
        )
        checks = [
            check("topk_first_is_hot", float(top_is_degraded), "eq", 1),
            check("topk_separation", separation, "ge", 2.0),
            check(
                "zipf_skew",
                per_tenant[degraded],
                "ge",
                max(per_tenant[1:]),
            ),
            check("shed_values", harness.shed_values, "eq", 0),
            check(
                "conservation",
                harness.server_stat("events_recorded"),
                "eq",
                harness.accepted_values,
            ),
        ]
        metrics = {
            "per_tenant_batches": per_tenant,
            "ranking": ranking,
        }
        publish(harness.telemetry, "hot_tenant", checks)
        traffic = harness.traffic()
    return scenario_report(
        "hot_tenant", seed, fast, traffic, metrics, checks
    )


# ----------------------------------------------------------------------
# flash_crowd
# ----------------------------------------------------------------------


def scenario_flash_crowd(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """A spike sized above queue capacity; shed counts must be exact.

    Steady load runs clean, then one :class:`FlashCrowd` tick offers
    ``workers + queue_size + extra`` batches through the parked-worker
    rendezvous: the parkers occupy the workers, the next ``queue_size``
    fill the queue, and exactly *extra* batches shed.  The client's
    ``client.shed_responses`` counter must agree (and its transport
    retry counter must stay zero — sheds are answers, not failures).
    """
    queue_size = 16 if fast else 32
    workers = 2
    extra = 8
    base_level = 4.0
    normal_ticks = 2 if fast else 4
    spike_total = workers + queue_size + extra
    curve = FlashCrowd(
        DiurnalCurve(
            base=base_level, peak=base_level, period=24, peak_tick=0
        ),
        at=normal_ticks,
        length=1,
        multiplier=spike_total / base_level,
    )
    values = LatencyValues()
    batch = 10
    with TrafficHarness(
        seed=seed, queue_size=queue_size, workers=workers
    ) as harness:
        client = harness.client
        assert client is not None
        for tick in range(normal_ticks):
            for _ in range(curve.batches_at(tick)):
                harness.ingest(
                    "lat.flash", values.sample(batch, harness.rng)
                )
            harness.advance(harness.partition_ms)
        pre_spike_shed = harness.shed_values
        spike_batches = curve.batches_at(normal_ticks)
        harness.overload()  # offers `workers` parker batches
        for _ in range(spike_batches - workers):
            harness.ingest(
                "lat.flash", values.sample(batch, harness.rng)
            )
        recovery_ms = harness.release()
        harness.advance(harness.partition_ms)
        metrics = {
            "queue_size": queue_size,
            "workers": workers,
            "spike_batches": spike_batches,
            "recovery_ms": recovery_ms,
            "final_p99": client.quantile("lat.flash", 0.99),
        }
        checks = [
            check("pre_spike_shed", pre_spike_shed, "eq", 0),
            check("spike_offered", spike_batches, "eq", spike_total),
            check("shed_batches", harness.shed_batches, "eq", extra),
            check(
                "server_shed_requests",
                harness.counter("server.shed_requests"),
                "eq",
                extra,
            ),
            check(
                "client_shed_responses",
                harness.counter("client.shed_responses"),
                "eq",
                extra,
            ),
            check(
                "no_transport_retries",
                harness.counter("client.transport_retries"),
                "eq",
                0,
            ),
            check("recovery_ms", recovery_ms, "le", harness.partition_ms),
            check("queue_drained", harness.server.queue_depth(), "eq", 0),
            check(
                "conservation",
                harness.server_stat("events_recorded"),
                "eq",
                harness.accepted_values,
            ),
        ]
        publish(harness.telemetry, "flash_crowd", checks)
        traffic = harness.traffic()
    return scenario_report(
        "flash_crowd", seed, fast, traffic, metrics, checks
    )


# ----------------------------------------------------------------------
# reconnect_storm
# ----------------------------------------------------------------------


def scenario_reconnect_storm(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """Server restart under live clients: fail over, reconnect, resume.

    The server stops (durability-free — the registry survives in
    process) and comes back on a fresh ephemeral port.  Every client
    burns a full retry schedule against the dead address — backoff
    advances the manual clock, so the storm is sleep-free — then
    re-points at the new port with :meth:`reconnect`.  Transport
    retries and shed responses must land in *different* counters:
    a storm is connection failure, not backpressure.
    """
    n_clients = 3 if fast else 5
    retries = 2
    batch = 20
    values = LatencyValues()
    with TrafficHarness(seed=seed, queue_size=128) as harness:
        clients = [harness.client] + [
            harness.new_client(retries=retries)
            for _ in range(n_clients - 1)
        ]
        for client in clients:
            assert client is not None
            harness.ingest(
                "lat.storm",
                values.sample(batch, harness.rng),
                client=client,
            )
        harness.advance(harness.partition_ms)
        count_before = clients[0].count("lat.storm")
        harness.server.stop()
        storm_failures = 0
        for client in clients:
            accepted = harness.ingest(
                "lat.storm",
                values.sample(batch, harness.rng),
                client=client,
            )
            if not accepted:
                storm_failures += 1
        harness.server.start()
        new_host, new_port = harness.server.address
        for client in clients:
            client.reconnect(host=new_host, port=new_port)
        for client in clients:
            harness.ingest(
                "lat.storm",
                values.sample(batch, harness.rng),
                client=client,
            )
        harness.barrier()
        count_after = clients[0].count("lat.storm")
        post_p99 = clients[0].quantile("lat.storm", 0.99)
        checks = [
            check("storm_failures", storm_failures, "eq", n_clients),
            check(
                "reconnects",
                harness.counter("client.reconnects"),
                "eq",
                n_clients,
            ),
            check(
                "transport_retries",
                harness.counter("client.transport_retries"),
                "eq",
                n_clients * retries,
            ),
            check(
                "no_shed_responses",
                harness.counter("client.shed_responses"),
                "eq",
                0,
            ),
            check(
                "data_survives_restart",
                count_before,
                "eq",
                n_clients * batch,
            ),
            check(
                "post_restart_total",
                count_after,
                "eq",
                2 * n_clients * batch,
            ),
            check(
                "post_restart_queryable",
                float(math.isfinite(post_p99)),
                "eq",
                1,
            ),
        ]
        metrics = {
            "n_clients": n_clients,
            "count_before": count_before,
            "count_after": count_after,
            "post_p99": post_p99,
        }
        publish(harness.telemetry, "reconnect_storm", checks)
        traffic = harness.traffic()
    return scenario_report(
        "reconnect_storm", seed, fast, traffic, metrics, checks
    )


# ----------------------------------------------------------------------
# slow_consumer
# ----------------------------------------------------------------------


def scenario_slow_consumer(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """A stalled drain plus a lagging reader; queries must not block.

    The drain gate closes (the queue's consumer goes "slow"), a backlog
    builds to a known depth, and a raw-socket consumer leaves a
    response unread — and through all of it the server must keep
    answering queries over already-applied data.  Releasing the gate
    must drain the backlog losslessly.
    """
    queue_size = 32
    backlog = 12 if fast else 24
    if backlog >= queue_size:
        raise InvalidValueError(
            "slow_consumer backlog must stay under the queue bound"
        )
    batch = 20
    baseline_batches = 4
    values = LatencyValues()
    with TrafficHarness(
        seed=seed, queue_size=queue_size, workers=1
    ) as harness:
        client = harness.client
        assert client is not None
        for _ in range(baseline_batches):
            harness.ingest("lat.slow", values.sample(batch, harness.rng))
        harness.advance(harness.partition_ms)
        baseline_count = client.count("lat.slow")
        harness.server.pause_ingest()
        harness.ingest("lat.slow", values.sample(batch, harness.rng))
        parked = harness.server.wait_parked(1)
        for _ in range(backlog):
            harness.ingest("lat.slow", values.sample(batch, harness.rng))
        depth_under_stall = harness.server.queue_depth()
        stalled_p99 = client.quantile("lat.slow", 0.99)
        # The lagging reader: sends a valid request and never reads the
        # answer.  Connection handlers are per-thread, so the unread
        # response must not affect anyone else.
        host, port = harness.server.address
        laggard = socket.create_connection((host, port), timeout=5.0)
        try:
            laggard.sendall(protocol.encode_frame({"op": "ping"}))
            responsive_during_lag = client.ping()
        finally:
            laggard.close()
        harness.release()
        harness.advance(harness.partition_ms)
        final_count = client.count("lat.slow")
        checks = [
            check("workers_parked", float(parked), "eq", 1),
            check("backlog_depth", depth_under_stall, "eq", backlog),
            check(
                "reads_unblocked",
                float(math.isfinite(stalled_p99)),
                "eq",
                1,
            ),
            check(
                "responsive_during_lag",
                float(responsive_during_lag),
                "eq",
                1,
            ),
            check("shed_values", harness.shed_values, "eq", 0),
            check(
                "backlog_drained", harness.server.queue_depth(), "eq", 0
            ),
            check(
                "conservation",
                final_count,
                "eq",
                baseline_count + (backlog + 1) * batch,
            ),
        ]
        metrics = {
            "baseline_count": baseline_count,
            "backlog": backlog,
            "stalled_p99": stalled_p99,
            "final_count": final_count,
        }
        publish(harness.telemetry, "slow_consumer", checks)
        traffic = harness.traffic()
    return scenario_report(
        "slow_consumer", seed, fast, traffic, metrics, checks
    )


# ----------------------------------------------------------------------
# proxy (cluster front end)
# ----------------------------------------------------------------------


def scenario_proxy(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """The same traffic shapes through the replicated cluster path.

    Zipf tenant traffic ingests via the routing proxy into a 3-node
    cluster (replication factor 2) on one manual clock; ticks drive
    replication and anti-entropy until every replica pair is
    byte-converged, and per-tenant counts must conserve end to end.
    """
    # Deferred import: the cluster package is heavy and only this
    # scenario needs it.
    from repro.cluster.local import LocalCluster
    from repro.obs.telemetry import Telemetry
    from repro.service.clock import ManualClock

    ticks = 3 if fast else 6
    batches_per_tick = 6
    batch = 15
    tenants = ZipfTenants(n_tenants=4)
    values = LatencyValues()
    rng = np.random.default_rng(seed)
    clock = ManualClock(1_000_000.0)
    telemetry = Telemetry(clock=clock)
    offered = {name: 0 for name in tenants.names}
    accepted = 0
    cluster = LocalCluster(
        n_nodes=3,
        clock=clock,
        seed=seed,
        replication_factor=2,
        telemetry=telemetry,
    )
    with cluster:
        client = cluster.client()
        try:
            for _tick in range(ticks):
                for pick in tenants.pick(batches_per_tick, rng):
                    name = tenants.name_of(int(pick))
                    accepted += client.ingest(
                        name, values.sample(batch, rng)
                    )
                    offered[name] += batch
                cluster.run_for(1_000.0, step_ms=250.0)
            cluster.run_for(5_000.0, step_ms=250.0)
            convergence = cluster.convergence_report()
            counts = {
                name: client.count(name)
                for name, sent in offered.items()
                if sent
            }
        finally:
            client.close()
    total_offered = sum(offered.values())
    checks = [
        check(
            "converged", float(convergence["converged"]), "eq", 1
        ),
        check("accepted", accepted, "eq", total_offered),
        check(
            "conservation", sum(counts.values()), "eq", total_offered
        ),
        check(
            "replicated_stores", convergence["stores"], "ge", len(counts)
        ),
    ]
    metrics = {
        "offered_per_tenant": offered,
        "counts": counts,
        "stores": convergence["stores"],
        "mismatches": len(convergence["mismatches"]),
    }
    publish(telemetry, "proxy", checks)
    traffic = {
        "offered_batches": ticks * batches_per_tick,
        "offered_values": total_offered,
        "accepted_values": accepted,
        "shed_batches": 0,
        "shed_values": 0,
        "failed_batches": 0,
    }
    return scenario_report("proxy", seed, fast, traffic, metrics, checks)


# ----------------------------------------------------------------------
# whatif (recorded WAL through altered configs)
# ----------------------------------------------------------------------


def scenario_whatif(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """Record once, replay through altered sketch configs, twice.

    A durability-attached harness (``final_checkpoint=False``) records
    a multi-tenant workload's WAL; the recording is then replayed into
    differently-configured registries.  Two replays of every config
    must be byte-identical (the determinism SLO), the configs must
    actually *differ* from each other (else the what-if answers
    nothing), and every config must conserve the recorded value count.
    """
    tmp = tempfile.mkdtemp(prefix="repro-whatif-")
    try:
        ledger = record_workload(
            tmp, seed=seed, ticks=3 if fast else 6
        )
        configs = [
            WhatIfConfig("paper-kll", "kll", seed=seed),
            WhatIfConfig("paper-ddsketch", "ddsketch", seed=seed),
        ]
        if not fast:
            configs.append(WhatIfConfig("paper-req", "req", seed=seed))
        first = replay_whatif(tmp, configs)
        second = replay_whatif(tmp, configs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    deterministic = protocol.encode_message(
        first
    ) == protocol.encode_message(second)
    summaries = first["configs"]
    digest_sets = [
        tuple(
            store["digest"]
            for _key, store in sorted(summary["stores"].items())
        )
        for summary in summaries.values()
    ]
    distinct_configs = len(set(digest_sets))
    counts_ok = all(
        sum(store["count"] for store in summary["stores"].values())
        == ledger["accepted_values"]
        for summary in summaries.values()
    )
    replays_ok = all(
        summary["records_replayed"] == ledger["offered_batches"]
        for summary in summaries.values()
    )
    checks = [
        check("replay_deterministic", float(deterministic), "eq", 1),
        check("configs_distinct", distinct_configs, "eq", len(configs)),
        check("counts_conserved", float(counts_ok), "eq", 1),
        check("all_records_replayed", float(replays_ok), "eq", 1),
        check("recording_shed", ledger["shed_values"], "eq", 0),
    ]
    metrics = {
        "configs": {
            label: {
                "records_replayed": summary["records_replayed"],
                "records_rejected": summary["records_rejected"],
                "size_bytes": summary["size_bytes"],
                "stores": len(summary["stores"]),
            }
            for label, summary in sorted(summaries.items())
        },
    }
    return scenario_report(
        "whatif", seed, fast, dict(ledger), metrics, checks
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

SCENARIOS: dict[str, Callable[[int, bool], dict[str, Any]]] = {
    "diurnal": scenario_diurnal,
    "hot_tenant": scenario_hot_tenant,
    "flash_crowd": scenario_flash_crowd,
    "reconnect_storm": scenario_reconnect_storm,
    "slow_consumer": scenario_slow_consumer,
    "proxy": scenario_proxy,
    "whatif": scenario_whatif,
}


def run_scenario(
    name: str,
    seed: int = DEFAULT_SEED,
    fast: bool = False,
) -> dict[str, Any]:
    """Run one catalog scenario by name and return its report."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise InvalidValueError(
            f"unknown scenario {name!r}; expected one of "
            f"{sorted(SCENARIOS)}"
        )
    return scenario(seed, fast)
