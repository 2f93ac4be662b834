"""Chaos subsystem: declarative fault plans, node liveness, blacklisting.

Covers every FaultKind end to end, the RM's heartbeat-driven node
lifecycle (RUNNING -> LOST -> revived), AM node blacklisting with its
disable failsafe, fetcher backoff/partition behaviour, AM-crash
recovery via the write-ahead RecoveryJournal, and the full
acceptance scenario: a
multi-stage DAG surviving node crashes + a rack outage + lost shuffle
output with correct results.
"""

import os
from collections import Counter

import pytest

from repro import FaultKind, FaultPlan, SimCluster
from repro.chaos import Fault
from repro.cluster import Cluster, ClusterSpec
from repro.shuffle import Fetcher, FetchFailure, ShuffleServices
from repro.sim import Environment
from repro.telemetry.check import check_store
from repro.tez import DAG, TezConfig
from repro.yarn import NodeState
from repro.yarn.security import SecurityManager

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
    run_dag,
)


def write_kv(sim, path, n, record_bytes=32, mod=10):
    records = [(i % mod, i) for i in range(n)]
    sim.hdfs.write(path, records, record_bytes=record_bytes)
    return records


def expected_sums(n, mod=10):
    out = {}
    for i in range(n):
        out[i % mod] = out.get(i % mod, 0) + i
    return out


def two_stage_dag(sim, name="chaos", map_fn=None, reduce_fn=None,
                  reducers=3, **map_payload):
    map_fn = map_fn or (lambda c, d: {"r": list(d["src"])})
    reduce_fn = reduce_fn or (lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]})
    m = fn_vertex("m", map_fn, -1, **map_payload)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", reduce_fn, reducers)
    hdfs_sink(r, "out", f"/out/{name}")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


# ===================================================== FaultPlan basics
def test_fault_plan_builders_chain_and_validate():
    plan = (FaultPlan(seed=7)
            .crash_node(at=2.0, restart_after=5.0)
            .rack_outage(at=4.0, rack="rack1", duration=10.0)
            .degrade_link(at=1.0, partitioned=True, duration=3.0)
            .drop_shuffle_output(at=3.0, pattern="/m/")
            .slow_node(at=0.5, speed=0.25)
            .crash_am(at=6.0))
    assert len(plan.faults) == 6
    assert plan.faults[0].kind == FaultKind.NODE_CRASH
    assert plan.faults[0].duration == 5.0
    with pytest.raises(ValueError):
        Fault(FaultKind.NODE_CRASH, at=-1.0)
    with pytest.raises(ValueError):
        Fault(FaultKind.SLOW_NODE, at=0.0, speed=0.0)
    with pytest.raises(ValueError):
        Fault(FaultKind.SHUFFLE_OUTPUT_LOSS, at=0.0, count=0)
    with pytest.raises(ValueError):
        Fault(FaultKind.RACK_OUTAGE, at=0.0, duration=0.0)


# ============================================== node lifecycle at the RM
def test_heartbeat_silence_marks_node_lost_and_revives_on_heal():
    """An isolated node is only detectable by missed heartbeats; the RM
    declares it LOST after the liveness timeout and revives it when
    heartbeats resume."""
    sim = SimCluster(num_nodes=4, nodes_per_rack=2)
    sim.run(until=1.0)
    assert sim.rm.node_states["node0000"] == NodeState.RUNNING
    sim.cluster.nodes["node0000"].isolated = True
    sim.run(until=1.0 + sim.spec.node_liveness_timeout
            + 2 * sim.spec.heartbeat_interval)
    assert sim.rm.node_states["node0000"] == NodeState.LOST
    assert sim.rm.nodes_lost_total == 1
    assert not sim.rm.node_schedulable("node0000")
    sim.cluster.nodes["node0000"].isolated = False
    sim.run(until=sim.now + 2 * sim.spec.heartbeat_interval)
    assert sim.rm.node_states["node0000"] == NodeState.RUNNING
    assert sim.rm.nodes_recovered_total == 1
    assert sim.rm.node_schedulable("node0000")


def test_rack_outage_cleans_containers_and_dag_recovers():
    """RM lost-node cleanup: when an isolated rack's nodes go LOST the
    RM kills their containers; the AM reruns that work elsewhere and
    the DAG still completes correctly."""
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    write_kv(sim, "/in", 4000, record_bytes=64)
    dag = two_stage_dag(sim, name="rackout", cpu_per_record=2e-3)
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    sim.run(until=6.0)
    assert client.last_am is not None
    am_rack = sim.cluster.nodes[
        client.last_am.ctx.am_container.node_id
    ].rack
    victim_rack = next(
        r for r in sim.cluster.racks() if r != am_rack
    )
    victims = [n.node_id for n in sim.cluster.nodes_in_rack(victim_rack)]
    busy = sum(
        len(sim.rm.node_managers[n].containers) for n in victims
    )
    assert busy > 0, "expected running containers on the victim rack"
    sim.cluster.isolate_rack(victim_rack)
    sim.run(until=sim.now + sim.spec.node_liveness_timeout
            + 2 * sim.spec.heartbeat_interval)
    for node_id in victims:
        assert sim.rm.node_states[node_id] == NodeState.LOST
        assert not sim.rm.node_managers[node_id].containers
    sim.cluster.restore_rack(victim_rack)
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    assert dict(sim.hdfs.read_file("/out/rackout")) == expected_sums(4000)
    assert status.metrics["nodes_lost"] >= len(victims)
    for node_id in victims:
        assert sim.rm.node_states[node_id] == NodeState.RUNNING


# ================================================== individual fault kinds
def test_chaos_node_crash_fault_recovers():
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    write_kv(sim, "/in", 3000, record_bytes=64)
    dag = two_stage_dag(sim, name="crash", cpu_per_record=1e-3)
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    plan = FaultPlan(seed=11).crash_node(at=5.0, restart_after=8.0)
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    assert dict(sim.hdfs.read_file("/out/crash")) == expected_sums(3000)
    assert controller.counters["node_crash"] == 1
    am = client.last_am
    assert am.registry.counter("nodes_lost").value >= 1
    assert am.registry.counter("faults_injected").value >= 1
    # The victim heals after restart_after.
    victim = controller.injected[0][2]
    sim.run(until=max(sim.now, 5.0 + 8.0) + 2.0)
    assert sim.cluster.nodes[victim].alive


def test_chaos_slow_node_applies_and_heals():
    sim = SimCluster(num_nodes=4, nodes_per_rack=2)
    plan = FaultPlan().slow_node(at=1.0, node="node0002", speed=0.5,
                                 duration=3.0)
    controller = sim.chaos(plan)
    sim.run(until=2.0)
    assert sim.cluster.nodes["node0002"].speed == 0.5
    sim.run(until=10.0)
    assert sim.cluster.nodes["node0002"].speed == 1.0
    assert controller.counters["slow_node"] == 1


def test_chaos_link_degrade_slows_transfers_then_heals():
    sim = SimCluster(num_nodes=4, nodes_per_rack=2)
    base = sim.cluster.transfer_time(1 << 20, "node0000", "node0002")
    plan = FaultPlan().degrade_link(
        at=1.0, rack_a="rack0", rack_b="rack1",
        bandwidth_factor=0.25, duration=4.0,
    )
    sim.chaos(plan)
    sim.run(until=2.0)
    degraded = sim.cluster.transfer_time(1 << 20, "node0000", "node0002")
    assert degraded == pytest.approx(base / 0.25)
    sim.run(until=10.0)
    healed = sim.cluster.transfer_time(1 << 20, "node0000", "node0002")
    assert healed == pytest.approx(base)


def test_partitioned_link_escalates_to_fetch_failure():
    spec = ClusterSpec(num_nodes=4, nodes_per_rack=2,
                       shuffle_retry_total_timeout=10.0)
    env = Environment()
    cluster = Cluster(env, spec)
    security = SecurityManager()
    services = ShuffleServices(cluster, security)
    tok = security.issue("JOB", "app1")
    refs = services.on_node("node0000").register_spill(
        "app1", "s1", {0: [1, 2, 3]}, token=tok
    )
    cluster.degrade_link("rack0", "rack1", partitioned=True)
    fetcher = Fetcher(env, cluster, services, "app1",
                      reader_node="node0003", job_token=tok)
    caught = []

    def body():
        try:
            yield env.process(fetcher.fetch(refs[0]))
        except FetchFailure as exc:
            caught.append(exc)

    env.process(body())
    env.run()
    assert caught and "partition" in caught[0].reason
    assert fetcher.retries >= 1
    # Same-rack fetches are unaffected by the inter-rack partition.
    ok = Fetcher(env, cluster, services, "app1",
                 reader_node="node0001", job_token=tok)
    proc = env.process(ok.fetch(refs[0]))
    env.run()
    assert proc.value == [1, 2, 3]


def test_fetcher_backoff_is_exponential_capped_and_seeded():
    spec = ClusterSpec(shuffle_retry_backoff=0.5,
                       shuffle_retry_backoff_cap=4.0)
    env = Environment()
    cluster = Cluster(env, spec)
    services = ShuffleServices(cluster, SecurityManager())
    fetcher = Fetcher(env, cluster, services, "app1",
                      reader_node="node0000")
    for attempts, base in [(1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0),
                           (5, 4.0), (9, 4.0)]:
        wait = fetcher._backoff(attempts)
        assert 0.5 * base <= wait < 1.5 * base
    # Seeded: two fetchers with the same seed draw identical jitter.
    a = Fetcher(env, cluster, services, "app1", reader_node="node0000")
    b = Fetcher(env, cluster, services, "app1", reader_node="node0000")
    assert [a._backoff(i) for i in range(1, 6)] == \
        [b._backoff(i) for i in range(1, 6)]


def test_chaos_shuffle_output_loss_triggers_reexecution():
    sim = make_sim()
    write_kv(sim, "/in", 500)
    map_runs = []

    def tracking_map(ctx, data):
        map_runs.append((ctx.task_index, ctx.attempt))
        return {"r": list(data["src"])}

    dag = two_stage_dag(sim, name="spill", map_fn=tracking_map,
                        reduce_fn=lambda c, d: {"out": [
                            (k, sum(vs)) for k, vs in d["m"]
                        ]})
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    plan = FaultPlan().drop_shuffle_output(at=0.5, pattern="/m/t0_",
                                           count=1, wait=30.0)
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    assert dict(sim.hdfs.read_file("/out/spill")) == expected_sums(500)
    assert controller.counters["shuffle_output_loss"] == 1
    assert status.metrics["reexecutions"] >= 1
    assert (0, 1) in map_runs  # map 0 regenerated its output


def test_shuffle_output_loss_in_a_sessions_second_dag_hits_that_dag():
    """A finished DAG's spills are freed when it ends, so a lost-output
    fault fired during the session's next DAG finds that DAG's map
    output, not a dead leftover of the first: the loss is real and
    costs one re-execution. (When the first DAG's spills stayed, this
    fault dropped ``one#1/m/t0_a0/r``, re-executed nothing and the
    second DAG took 1.002 s.)"""
    sim = make_sim()
    write_kv(sim, "/in", 500)
    client = sim.tez_client(session=True)
    client.start()
    first = client.submit_dag(two_stage_dag(sim, name="one"))
    sim.env.run(until=first.completion)
    assert first.status.succeeded, first.status.diagnostics
    second = client.submit_dag(two_stage_dag(sim, name="two"))
    plan = FaultPlan().drop_shuffle_output(at=sim.env.now + 0.5,
                                           pattern="/m/", count=1,
                                           wait=30.0)
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=second.completion)
    status = second.status
    assert status.succeeded, status.diagnostics
    [(_at, _kind, dropped)] = controller.injected
    assert dropped.startswith("two#2/m/"), dropped
    assert status.metrics["reexecutions"] == 1
    assert status.elapsed == pytest.approx(1.703, abs=1e-3)
    assert dict(sim.hdfs.read_file("/out/two")) == expected_sums(500)


# ======================================================= blacklisting
def _session_am(sim, config=None):
    client = sim.tez_client(session=True, config=config)
    client.start()
    sim.run(until=5.0)
    assert client.last_am is not None
    return client, client.last_am


def test_node_blacklisted_after_threshold_failures():
    sim = make_sim()
    client, am = _session_am(sim)
    am_node = am.ctx.am_container.node_id
    victim = sorted(n for n in sim.cluster.nodes if n != am_node)[0]
    for _ in range(am.config.node_max_task_failures - 1):
        am._record_node_failure(victim)
    assert victim not in am.blacklisted_nodes
    am._record_node_failure(victim)
    assert victim in am.blacklisted_nodes
    assert am.registry.counter("nodes_blacklisted").value == 1
    assert victim in am.scheduler.blacklisted
    assert victim in am.ctx.app.blacklist  # YARN-side exclusion


def test_blacklist_failsafe_disables_when_too_many_nodes():
    # 4 nodes at the default 0.33 fraction: the second blacklisted node
    # exceeds the threshold and disables blacklisting entirely.
    sim = make_sim()
    client, am = _session_am(sim)
    am_node = am.ctx.am_container.node_id
    victims = sorted(n for n in sim.cluster.nodes if n != am_node)[:2]
    for victim in victims:
        for _ in range(am.config.node_max_task_failures):
            am._record_node_failure(victim)
    assert am.blacklisting_disabled
    assert not am.blacklisted_nodes
    assert not am.scheduler.blacklisted
    assert not am.ctx.app.blacklist
    # Once disabled, further failures never blacklist again.
    for _ in range(10):
        am._record_node_failure(victims[0])
    assert not am.blacklisted_nodes


def test_blacklisting_can_be_disabled_by_config():
    sim = make_sim()
    client, am = _session_am(
        sim, config=TezConfig(node_blacklisting_enabled=False)
    )
    for _ in range(10):
        am._record_node_failure("node0001")
    assert not am.blacklisted_nodes
    assert am.registry.counter("nodes_blacklisted").value == 0


# =================================================== AM crash recovery
def test_chaos_am_crash_recovers_without_rerunning_maps():
    """Journal replay finishes an interrupted DAG without re-running
    completed tasks (paper 4.3 AM recovery)."""
    sim = make_sim()
    write_kv(sim, "/in", 200)
    map_runs = []

    def tracking_map(ctx, data):
        map_runs.append((ctx.task_index, ctx.attempt))
        return {"r": list(data["src"])}

    m = fn_vertex("m", tracking_map, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 2, setup_seconds=15.0)
    hdfs_sink(r, "out", "/out/amrec")
    dag = DAG("amrec").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))

    client = sim.tez_client(session=True)
    client.start()
    handle = client.submit_dag(dag)

    # Let the fast maps finish, then kill the AM mid-reduce (the
    # reducers carry a long setup so they are guaranteed in flight).
    sim.run(until=10.0)
    first_am = client.last_am
    maps_done_before_crash = first_am.registry.counter(
        "tasks_succeeded").value
    assert maps_done_before_crash >= 1, "tune: no maps done before crash"
    assert client.coordinator.shard(0).journal.dags["amrec"].successes, \
        "tune: recovery journal empty"
    plan = FaultPlan().crash_am(at=10.0)
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=handle.completion)

    status = handle.status
    assert status.succeeded, status.diagnostics
    assert controller.counters["am_crash"] == 1
    assert client.last_am is not first_am
    assert client.last_am.ctx.attempt == 2
    assert dict(sim.hdfs.read_file("/out/amrec")) == expected_sums(200)
    # The recovered AM replayed completed maps from the recovery
    # journal instead of re-running them: every map ran exactly once,
    # and only under the first AM (attempt numbers were not restarted).
    runs_per_task = Counter(t for t, _a in map_runs)
    assert len(runs_per_task) == maps_done_before_crash
    assert all(c == 1 for c in runs_per_task.values())
    client.stop()


def _crashable_session(sim, name):
    """A session client running a two-stage DAG whose reducers are
    still in flight at t=10, with its first AM attempt live at t=5."""
    write_kv(sim, "/in", 200)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 2, setup_seconds=15.0)
    hdfs_sink(r, "out", f"/out/{name}")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    client = sim.tez_client(session=True)
    client.start()
    handle = client.submit_dag(dag)
    sim.run(until=5.0)
    assert client.last_am is not None
    return client, handle


def test_am_crash_and_node_crash_in_one_instant_both_land():
    """Each fault goes to what it breaks: a node crash planned for the
    instant an AM crash lands is applied to the cluster, not handed to
    the dead attempt, and each fault is recorded once."""
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    client, handle = _crashable_session(sim, "same")
    first_am = client.last_am
    am_node = first_am.ctx.am_container.node_id
    victim = sorted(n for n in sim.cluster.nodes if n != am_node)[-1]
    plan = FaultPlan(seed=3).crash_am(at=8.0).crash_node(at=8.0,
                                                         node=victim)
    controller = sim.chaos(plan, client=client)
    sim.run(until=8.0 + 1e-9)
    assert first_am.dispatcher.halted
    assert not sim.cluster.nodes[victim].alive
    assert [(at, kind) for at, kind, _ in controller.injected] == \
        [(8.0, "am_crash"), (8.0, "node_crash")]
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert client.last_am.ctx.attempt == 2
    assert dict(sim.hdfs.read_file("/out/same")) == expected_sums(200)
    client.stop()


def test_a_second_crash_of_a_dead_attempt_changes_nothing():
    """``crash()`` on an attempt that is already dead leaves the journal
    and the AM container alone: the application restarts once."""
    sim = make_sim()
    client, handle = _crashable_session(sim, "twice")
    am = client.last_am
    journal = client.coordinator.shard(0).journal
    nm = sim.rm.node_managers[am.ctx.am_container.node_id]
    stops = []
    stop = nm.stop_container
    nm.stop_container = lambda cid, status: (stops.append(cid),
                                              stop(cid, status))
    sim.run(until=8.0)
    am.crash()
    epoch, fenced = journal.current_epoch, journal.fenced_appends
    am.crash()
    assert (journal.current_epoch, journal.fenced_appends) == \
        (epoch, fenced)
    assert stops == [am.ctx.am_container.container_id]
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert client.last_am.ctx.attempt == 2
    assert dict(sim.hdfs.read_file("/out/twice")) == expected_sums(200)
    client.stop()


# ==================================================== acceptance scenario
def test_acceptance_tpch_style_dag_survives_chaos():
    """The ISSUE acceptance run: a multi-stage TPC-H-style DAG survives
    two node crashes, a 30-second rack outage and a dropped shuffle
    output — completing with correct results and full chaos accounting
    in the AM metrics."""
    sim = SimCluster(num_nodes=12, nodes_per_rack=4,
                     hdfs_block_size=64 * 1024,
                     memory_per_node_mb=16 * 1024, cores_per_node=8)
    n = 30_000
    write_kv(sim, "/in/lineitem", n, record_bytes=64, mod=40)

    # scan -> join-ish regroup -> aggregate (three SG stages).
    scan = fn_vertex("scan", lambda c, d: {"join": list(d["src"])}, -1,
                     cpu_per_record=6e-4)
    hdfs_source(scan, "src", ["/in/lineitem"])
    join = fn_vertex("join", lambda c, d: {"agg": [
        (k % 8, v) for k, vs in d["scan"] for v in vs
    ]}, 8, cpu_per_record=4e-4)
    agg = fn_vertex("agg", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["join"]
    ]}, 4)
    hdfs_sink(agg, "out", "/out/q")
    dag = (DAG("tpch-q-style").add_vertex(scan).add_vertex(join)
           .add_vertex(agg))
    dag.add_edge(edge(scan, join, SG))
    dag.add_edge(edge(join, agg, SG))

    config = TezConfig(node_max_task_failures=2,
                       blacklist_disable_fraction=0.5)
    client = sim.tez_client(config=config)
    handle = client.submit_dag(dag)
    plan = (FaultPlan(seed=5)
            .crash_node(at=6.0)
            .crash_node(at=9.0, restart_after=20.0)
            .rack_outage(at=12.0, duration=30.0)
            .drop_shuffle_output(at=7.0, pattern="/scan/", count=1,
                                 wait=30.0))
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=handle.completion)

    status = handle.status
    assert status.succeeded, status.diagnostics
    expected = {}
    for i in range(n):
        expected[(i % 40) % 8] = expected.get((i % 40) % 8, 0) + i
    assert dict(sim.hdfs.read_file("/out/q")) == expected
    assert controller.counters["node_crash"] == 2
    assert controller.counters["rack_outage"] == 1
    am = client.last_am
    assert am.registry.counter("nodes_lost").value >= 2
    assert am.registry.counter("nodes_blacklisted").value >= 1
    assert am.registry.counter("lost_node_reexecutions").value > 0
    assert am.registry.counter("faults_injected").value >= 3


# ========================================================== CI smoke
def test_chaos_smoke(tmp_path):
    """Small fast chaos run for CI (selected with ``-k smoke``).

    The run persists its telemetry store - into ``REPRO_STORE_OUT`` when
    that is set, which CI then checks with ``repro.telemetry.check
    --store`` and archives - and the store must check clean.
    """
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    write_kv(sim, "/in", 800)
    dag = two_stage_dag(sim, name="smoke", cpu_per_record=5e-4)
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    plan = (FaultPlan(seed=3)
            .crash_node(at=3.0, restart_after=5.0)
            .drop_shuffle_output(at=2.0, pattern="/m/", wait=20.0))
    controller = sim.chaos(plan, client=client)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert dict(sim.hdfs.read_file("/out/smoke")) == expected_sums(800)
    assert controller.faults_injected >= 1
    for key in ("nodes_lost", "nodes_blacklisted",
                "lost_node_reexecutions", "faults_injected"):
        assert key in handle.status.metrics
    target = os.environ.get("REPRO_STORE_OUT") or str(tmp_path / "store")
    sim.telemetry.persist_store(target)
    assert check_store(target) == []
