"""Leader failover: detection, promotion, catch-up, staleness bounds."""

from __future__ import annotations

import time

from repro.cluster import LocalCluster
from repro.service.client import QuantileClient


def direct_client(cluster, node_id):
    host, port = cluster.node(node_id).address
    return QuantileClient(host, port, clock=cluster.clock, retries=0)


class TestFailover:
    def test_leader_death_is_detected_and_a_follower_promoted(self):
        with LocalCluster(n_nodes=3) as cluster:
            with cluster.client() as client:
                client.ingest("m", [float(v) for v in range(100)])
            cluster.run_for(1_000.0)
            old_leader = cluster.leader_of("m")
            cluster.crash(old_leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            view = cluster.supervisor.view
            assert not view.is_alive(old_leader)
            new_leader = cluster.leader_of("m")
            assert new_leader is not None
            assert new_leader != old_leader

    def test_new_leader_accepts_writes_and_serves_merged_reads(self):
        with LocalCluster(n_nodes=3) as cluster:
            with cluster.client() as client:
                client.ingest("m", [float(v) for v in range(100)])
            cluster.run_for(1_000.0)
            old_leader = cluster.leader_of("m")
            cluster.crash(old_leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            with cluster.client() as client:
                assert client.ingest("m", [1_000.0] * 50) == 50
                # The key's history now spans two origins; the read
                # must merge the old leader's replicated records with
                # the new leader's own.
                assert client.count("m") == 150
                assert client.quantile("m", 0.99) == 1_000.0

    def test_no_acked_write_is_lost_across_crash_and_recovery(self):
        with LocalCluster(n_nodes=3) as cluster:
            acked = 0
            with cluster.client() as client:
                acked += client.ingest("m", [float(v) for v in range(60)])
            cluster.run_for(1_000.0)
            old_leader = cluster.leader_of("m")
            cluster.crash(old_leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            with cluster.client() as client:
                acked += client.ingest("m", [float(v) for v in range(40)])
            cluster.restart(old_leader)
            cluster.run_for(5_000.0, step_ms=250.0)
            assert cluster.converged()
            # Every replica answers with every acked record — the
            # crashed leader recovered its acked suffix from its WAL.
            for node_id in cluster.running_nodes():
                with direct_client(cluster, node_id) as direct:
                    assert direct.count("m") == acked

    def test_recovered_leader_reclaims_its_keys(self):
        with LocalCluster(n_nodes=3) as cluster:
            with cluster.client() as client:
                client.ingest("m", [1.0, 2.0])
            cluster.run_for(1_000.0)
            old_leader = cluster.leader_of("m")
            cluster.crash(old_leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            assert cluster.leader_of("m") != old_leader
            cluster.restart(old_leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            # Leadership is positional: the resurrected primary leads
            # again as soon as the view marks it alive.
            assert cluster.leader_of("m") == old_leader


def clock_ms_until(cluster, predicate):
    """Tick at 250 ms until *predicate* holds; manual-clock ms spent."""
    start = cluster.clock.now_ms()
    while not predicate():
        assert cluster.clock.now_ms() - start < 10_000.0, "never held"
        cluster.tick(advance_ms=250.0)
    return cluster.clock.now_ms() - start


class TestFailoverClock:
    """Failover cost in manual-clock time: noise-free, so pinned."""

    def test_detection_and_catchup_stay_within_their_tick_budgets(self):
        values = [float(v) for v in range(2_000)]
        with LocalCluster(n_nodes=3) as cluster:
            with cluster.client() as client:
                acked = client.ingest("m", values)
            cluster.run_for(2_000.0)
            leader = cluster.leader_of("m")
            cluster.crash(leader)
            detection_ms = clock_ms_until(
                cluster,
                lambda: not cluster.supervisor.view.is_alive(leader)
                and cluster.leader_of("m") != leader,
            )
            with cluster.client() as client:
                acked += client.ingest("m", values)
            cluster.restart(leader)
            catchup_ms = clock_ms_until(cluster, cluster.converged)
            assert detection_ms <= 1_250.0
            assert catchup_ms <= 500.0
            for node_id in cluster.running_nodes():
                with direct_client(cluster, node_id) as direct:
                    assert direct.count("m") == acked == 4_000


THRESHOLD = {
    "kind": "threshold",
    "metric": "lat",
    "q": 0.5,
    "op": "gt",
    "threshold": 10.0,
    "window_ms": 60_000.0,
}


def cq_observed(cluster):
    """``{node: (status, observed)}`` of one threshold CQ per node."""
    out = {}
    for node_id in cluster.running_nodes():
        with direct_client(cluster, node_id) as direct:
            query_id = direct.cq_register(THRESHOLD)
            [result] = direct.cq_eval()
            direct.cq_unregister(query_id)
        out[node_id] = (result["status"], result["observed"])
    return out


class TestContinuousQueriesOnFollowers:
    """A follower holds a key only under its leader's origin; standing
    queries must read through the same origin-spanning lookup as
    one-shot queries."""

    def test_follower_cq_matches_leader_across_failover(self):
        with LocalCluster(n_nodes=3) as cluster:
            with cluster.client() as client:
                for batch in range(5):
                    client.ingest(
                        "lat", [float(v + batch) for v in range(30)]
                    )
            cluster.run_for(1_000.0)
            leader = cluster.leader_of("lat")
            before = cq_observed(cluster)
            assert before[leader][0] == "firing"
            assert set(before.values()) == {before[leader]}

            cluster.crash(leader)
            cluster.run_for(3_000.0, step_ms=250.0)
            with cluster.client() as client:
                client.ingest("lat", [500.0] * 200)
            cluster.run_for(1_000.0)
            new_leader = cluster.leader_of("lat")
            after = cq_observed(cluster)
            assert new_leader != leader and len(after) == 2
            assert after[new_leader][1] != before[leader][1]
            assert set(after.values()) == {after[new_leader]}


class TestStalenessBound:
    def test_fresh_follower_serves_preferred_reads(self):
        with LocalCluster(n_nodes=3, prefer_followers=True) as cluster:
            with cluster.client() as client:
                client.ingest("m", [float(v) for v in range(100)])
            cluster.run_for(2_000.0)
            leader = cluster.leader_of("m")
            before = {
                node_id: cluster.node(node_id).stats.snapshot().get(
                    "query_requests", 0
                )
                for node_id in cluster.running_nodes()
            }
            with cluster.client() as client:
                assert client.count("m") == 100
            after = {
                node_id: cluster.node(node_id).stats.snapshot().get(
                    "query_requests", 0
                )
                for node_id in cluster.running_nodes()
            }
            served = [n for n in after if after[n] > before[n]]
            assert served and all(n != leader for n in served)

    def test_stale_view_forces_leader_reads(self):
        with LocalCluster(n_nodes=3, prefer_followers=True) as cluster:
            with cluster.client() as client:
                client.ingest("m", [float(v) for v in range(100)])
            cluster.run_for(2_000.0)
            leader = cluster.leader_of("m")
            # Let the view age past the staleness bound without a
            # heartbeat: follower evidence is now too old to trust.
            cluster.clock.advance(10_000.0)
            before = cluster.node(leader).stats.snapshot().get(
                "query_requests", 0
            )
            with cluster.client() as client:
                assert client.count("m") == 100
            after = cluster.node(leader).stats.snapshot().get(
                "query_requests", 0
            )
            assert after == before + 1
            assert (
                cluster.telemetry.counter("proxy.stale_view_reads").value
                > 0
            )

    def test_lagging_follower_is_ineligible(self):
        with LocalCluster(
            n_nodes=3, prefer_followers=True
        ) as cluster:
            with cluster.client() as client:
                client.ingest("m", [float(v) for v in range(100)])
            cluster.run_for(2_000.0)
            leader = cluster.leader_of("m")
            # New records the followers have not pulled yet, then a
            # heartbeat that records their lag — but no replication
            # tick, so the lag persists in the view.
            with cluster.client() as client:
                client.ingest("m", [200.0] * 10)
            cluster.supervisor.heartbeat()
            before = cluster.node(leader).stats.snapshot().get(
                "query_requests", 0
            )
            with cluster.client() as client:
                assert client.count("m") == 110
            after = cluster.node(leader).stats.snapshot().get(
                "query_requests", 0
            )
            # max_lag_records=0: every follower trails the origin, so
            # only the leader may answer.
            assert after == before + 1


class TestShutdown:
    """Stops wake the accept loop instead of waiting out a 0.5 s poll."""

    def test_idle_node_stop_returns_promptly(self):
        with LocalCluster(n_nodes=1) as cluster:
            node = cluster.node("n0")
            began = time.monotonic()
            node.stop()
            assert time.monotonic() - began < 0.1

    def test_idle_proxy_stop_returns_promptly(self):
        with LocalCluster(n_nodes=1) as cluster:
            began = time.monotonic()
            cluster.proxy.stop()
            assert time.monotonic() - began < 0.1
