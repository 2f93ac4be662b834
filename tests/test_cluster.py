"""Unit tests for the cluster topology and cost model."""

import pytest

from repro.cluster import Cluster, ClusterSpec, LOCAL, RACK_LOCAL, REMOTE
from repro.sim import Environment


def make_cluster(**overrides):
    spec = ClusterSpec(num_nodes=8, nodes_per_rack=4, **overrides)
    return Cluster(Environment(), spec)


class TestSpec:
    def test_rack_count(self):
        assert ClusterSpec(num_nodes=8, nodes_per_rack=4).num_racks == 2
        assert ClusterSpec(num_nodes=9, nodes_per_rack=4).num_racks == 3
        assert ClusterSpec(num_nodes=1, nodes_per_rack=4).num_racks == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(hdfs_replication=0)

    def test_transfer_time_ordering(self):
        spec = ClusterSpec()
        nbytes = 100 * 1024 * 1024
        local = spec.transfer_time(nbytes, "local")
        rack = spec.transfer_time(nbytes, "rack")
        remote = spec.transfer_time(nbytes, "remote")
        assert local <= rack <= remote
        assert local > 0

    def test_transfer_time_zero_bytes(self):
        assert ClusterSpec().transfer_time(0, "remote") == 0.0

    def test_transfer_time_bad_locality(self):
        with pytest.raises(ValueError):
            ClusterSpec().transfer_time(10, "galactic")

    def test_scaled_copy(self):
        spec = ClusterSpec(num_nodes=4)
        bigger = spec.scaled(num_nodes=100)
        assert bigger.num_nodes == 100
        assert spec.num_nodes == 4
        assert bigger.cores_per_node == spec.cores_per_node

    def test_compute_time(self):
        spec = ClusterSpec()
        assert spec.compute_time(1_000_000) == pytest.approx(
            1_000_000 * spec.cpu_cost_per_record
        )
        assert spec.sort_time(100) > spec.compute_time(100)


class TestTopology:
    def test_rack_assignment(self):
        cluster = make_cluster()
        racks = cluster.racks()
        assert racks == ["rack0", "rack1"]
        assert len(cluster.nodes_in_rack("rack0")) == 4

    def test_locality_classes(self):
        cluster = make_cluster()
        nodes = sorted(cluster.nodes)
        assert cluster.locality(nodes[0], nodes[0]) == LOCAL
        assert cluster.locality(nodes[0], nodes[1]) == RACK_LOCAL
        assert cluster.locality(nodes[0], nodes[7]) == REMOTE

    def test_crash_and_restart(self):
        cluster = make_cluster()
        nid = sorted(cluster.nodes)[0]
        assert len(cluster.live_nodes()) == 8
        cluster.crash_node(nid)
        assert len(cluster.live_nodes()) == 7
        assert not cluster.nodes[nid].alive
        cluster.restart_node(nid)
        assert cluster.nodes[nid].alive

    def test_crash_listener_fires_once(self):
        cluster = make_cluster()
        nid = sorted(cluster.nodes)[0]
        calls = []
        cluster.nodes[nid].on_crash(lambda n: calls.append(n.node_id))
        cluster.crash_node(nid)
        cluster.crash_node(nid)  # idempotent
        assert calls == [nid]

    def test_replica_placement_spreads_racks(self):
        cluster = make_cluster()
        nid = sorted(cluster.nodes)[0]
        replicas = cluster.place_replicas(3, preferred=nid)
        assert replicas[0].node_id == nid
        assert len({r.node_id for r in replicas}) == 3
        assert len({r.rack for r in replicas}) >= 2

    def test_replica_placement_avoids_dead_preferred(self):
        cluster = make_cluster()
        nid = sorted(cluster.nodes)[0]
        cluster.crash_node(nid)
        replicas = cluster.place_replicas(3, preferred=nid)
        assert all(r.node_id != nid for r in replicas)

    def test_placement_deterministic_given_seed(self):
        a = make_cluster(seed=5)
        b = make_cluster(seed=5)
        pa = [n.node_id for n in a.place_replicas(3, "node0001")]
        pb = [n.node_id for n in b.place_replicas(3, "node0001")]
        assert pa == pb

    def test_slow_node_validation(self):
        cluster = make_cluster()
        nid = sorted(cluster.nodes)[0]
        cluster.slow_node(nid, 0.25)
        assert cluster.nodes[nid].speed == 0.25
        with pytest.raises(ValueError):
            cluster.slow_node(nid, 0.0)
        with pytest.raises(ValueError):
            cluster.slow_node(nid, 2.0)


class TestLinkHealth:
    """What the fetcher asks per fetch - ``link_partitioned``,
    ``link_loss_rate``, ``transfer_time`` (all through ``link_state``) -
    for a same-node, a same-rack and a cross-rack pair, as the table of
    degraded links fills and empties."""

    NBYTES = 64 * 1024 * 1024
    PAIRS = {"node": ("node0000", "node0000"),
             "rack": ("node0000", "node0001"),
             "cross": ("node0000", "node0007")}

    def answers(self, cluster):
        return {
            name: (cluster.link_state(a, b), cluster.link_partitioned(a, b),
                   cluster.link_loss_rate(a, b),
                   cluster.transfer_time(self.NBYTES, a, b))
            for name, (a, b) in self.PAIRS.items()}

    def healthy(self, cluster):
        return {name: (None, False, 0.0, cluster.spec.transfer_time(
                    self.NBYTES, cluster.locality(a, b)))
                for name, (a, b) in self.PAIRS.items()}

    def test_degrade_restore_isolate(self):
        cluster = Cluster(Environment(),      # three racks
                          ClusterSpec(num_nodes=12, nodes_per_rack=4))
        healthy = self.healthy(cluster)
        assert self.answers(cluster) == healthy

        # A degraded link between two *other* racks: the table is no
        # longer empty, the answers for these pairs are what they were.
        cluster.degrade_link("rack1", "rack2", partitioned=True)
        assert self.answers(cluster) == healthy

        cluster.degrade_link("rack1", "rack0", bandwidth_factor=0.25,
                             loss_rate=0.5)
        degraded = self.answers(cluster)
        assert {k: degraded[k] for k in ("node", "rack")} == \
            {k: healthy[k] for k in ("node", "rack")}
        link, partitioned, loss, seconds = degraded["cross"]
        assert (link.bandwidth_factor, link.loss_rate, link.partitioned,
                partitioned, loss) == (0.25, 0.5, False, False, 0.5)
        assert seconds == healthy["cross"][3] / 0.25
        # The link is the rack pair, whichever end asks.
        assert cluster.link_state("node0007", "node0000") is link

        cluster.degrade_link("rack0", "rack1", partitioned=True)
        assert self.answers(cluster)["cross"][1:] == \
            (True, 0.0, healthy["cross"][3])

        cluster.restore_link("rack0", "rack1")
        assert self.answers(cluster) == healthy
        cluster.restore_link("rack2", "rack1")
        assert self.answers(cluster) == healthy   # empty table again

        # An isolated rack partitions every pair that is not one node,
        # with no entry in the link table at all.
        cluster.isolate_rack("rack0")
        isolated = self.answers(cluster)
        assert [isolated[k][1] for k in ("node", "rack", "cross")] == \
            [False, True, True]
        assert {k: v[:1] + v[2:] for k, v in isolated.items()} == \
            {k: v[:1] + v[2:] for k, v in healthy.items()}
        cluster.restore_rack("rack0")
        assert self.answers(cluster) == healthy


class TestMemoryTierCostModel:
    def test_local_memory_beats_local_disk(self):
        spec = ClusterSpec()
        n = 100 * 1024 * 1024
        assert spec.transfer_time(n, "local", storage="memory") < \
            spec.transfer_time(n, "local", storage="disk")

    def test_remote_memory_capped_by_network(self):
        spec = ClusterSpec()
        n = 100 * 1024 * 1024
        # Over the network, memory speed cannot beat the wire.
        assert spec.transfer_time(n, "remote", storage="memory") == \
            pytest.approx(n / spec.net_bw_cross_rack)
