"""The sharded control plane: multi-AM RM service, per-shard AM
isolation, the journal-aimed chaos crash, and the cluster-day soak's
determinism (PR 8)."""

import pytest

from repro.chaos import FaultPlan
from repro.cluster import Cluster, ClusterSpec
from repro.sim import Environment
from repro.telemetry.query import shard_line
from repro.telemetry.store import read_manifest
from repro.tez import DAG, TezConfig
from repro.yarn import (
    FinalApplicationStatus,
    Priority,
    QueueConfig,
    Resource,
    ResourceManager,
)

from helpers import fn_vertex, make_sim

TASK_PRI = Priority(5)
SMALL = Resource(1024, 1)


def make_rm(num_nodes=4, nodes_per_rack=2, queues=None, **spec_overrides):
    spec = ClusterSpec(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        memory_per_node_mb=8192,
        cores_per_node=8,
        **spec_overrides,
    )
    env = Environment()
    cluster = Cluster(env, spec)
    rm = ResourceManager(env, cluster, queues=queues)
    return env, cluster, rm


def simple_am(env, n_tasks, task_seconds=1.0, trace=None, queue_of=None):
    """An AM body that registers, heartbeats, runs ``n_tasks``
    containers and unregisters — the multi-AM protocol driver."""

    def am(ctx):
        ctx.register()
        ctx.heartbeat()
        ctx.request_containers(TASK_PRI, SMALL, count=n_tasks)
        launched = 0
        done = 0
        while done < n_tasks:
            if launched < n_tasks:
                c = yield ctx.allocated.get()

                def task(container):
                    yield env.timeout(
                        container.compute_delay(task_seconds))

                ctx.launch_container(c, task)
                launched += 1
                ctx.heartbeat()
            else:
                yield ctx.completed.get()
                done += 1
        while done < launched:
            yield ctx.completed.get()
            done += 1
        if trace is not None:
            trace.append((ctx.app_id, env.now))
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    return am


# --------------------------------------------------- multi-AM RM service

def test_three_concurrent_ams_full_protocol():
    """>=3 AMs interleaving register/heartbeat/allocate/unregister
    against one RM, all finishing with the cluster drained."""
    env, cluster, rm = make_rm()
    trace = []
    handles = [
        rm.submit_application(
            f"app{i}", simple_am(env, 4, task_seconds=4.0, trace=trace))
        for i in range(3)
    ]

    sampled = {}

    def sampler():
        # Past AM launch overhead, before the first app unregisters.
        yield env.timeout(8.0)
        sampled["live"] = list(rm.am_service.live_applications())
        sampled["infos"] = [
            rm.am_service.application_info(h.app_id) for h in handles
        ]

    env.process(sampler(), name="sampler")
    for h in handles:
        env.run(until=h.completion)
    assert all(
        h.final_status == FinalApplicationStatus.SUCCEEDED
        for h in handles
    )
    # All three were registered and live at once, each with its own
    # liveness trail.
    assert len(sampled["live"]) == 3
    for info in sampled["infos"]:
        assert info["live"]
        assert info["registered_at"] is not None
        assert info["heartbeats"] >= 1
    assert len(trace) == 3
    env.run(until=env.now + 5)
    for nm in rm.node_managers.values():
        assert nm.used == Resource(0, 0)


def test_queue_arbitration_across_concurrent_ams():
    """Concurrent AMs on separate capacity queues all make progress
    and complete; no queue starves another out."""
    queues = [QueueConfig("prod", 0.5, 0.9),
              QueueConfig("batch", 0.3, 0.7),
              QueueConfig("adhoc", 0.2, 0.6)]
    env, cluster, rm = make_rm(num_nodes=2, queues=queues)
    handles = [
        rm.submit_application(
            f"app-{q.name}", simple_am(env, 8, task_seconds=2.0),
            queue=q.name,
        )
        for q in queues
    ]
    for h in handles:
        env.run(until=h.completion)
    assert all(
        h.final_status == FinalApplicationStatus.SUCCEEDED
        for h in handles
    )
    env.run(until=env.now + 5)
    for nm in rm.node_managers.values():
        assert nm.used == Resource(0, 0)


def test_per_app_blacklist_isolation():
    """One app's blacklist steers only its own containers; a
    concurrent app still lands on the blacklisted node."""
    env, cluster, rm = make_rm(num_nodes=2, nodes_per_rack=2)
    placements = {"a": set(), "b": set()}

    def am(key, banned):
        def body(ctx):
            ctx.register()
            if banned:
                ctx.update_blacklist(additions=[banned])
            ctx.request_containers(TASK_PRI, SMALL, count=6)
            got = []
            for _ in range(6):
                c = yield ctx.allocated.get()
                placements[key].add(c.node_id)
                got.append(c)

                def task(container):
                    yield env.timeout(container.compute_delay(0.5))

                ctx.launch_container(c, task)
            for _ in got:
                yield ctx.completed.get()
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)

        return body

    ha = rm.submit_application("a", am("a", "node0000"))
    hb = rm.submit_application("b", am("b", None))
    env.run(until=ha.completion)
    env.run(until=hb.completion)
    assert "node0000" not in placements["a"]
    assert placements["a"] == {"node0001"}
    assert "node0000" in placements["b"]


# ----------------------------------------------------- shard facade

def _one_task_dag(name, seconds=0.0):
    dag = DAG(name)
    payload = {"setup_seconds": seconds} if seconds else {}
    dag.add_vertex(fn_vertex("v", lambda c, d: {}, 2, **payload))
    return dag


def test_single_dag_run_uses_exactly_one_shard():
    sim = make_sim()
    client = sim.tez_client()
    handle = client.submit_dag(_one_task_dag("solo"))
    sim.env.run(until=handle.completion)
    assert handle.status.state.name == "SUCCEEDED"
    summaries = client.coordinator.shard_summaries()
    assert len(summaries) == 1
    assert summaries[0]["dags"] == 1
    assert summaries[0]["am_attempts"] == 1


def test_two_shard_session_round_robins_and_isolates_journals():
    sim = make_sim()
    client = sim.tez_client(session=True, shards=2)
    handles = [client.submit_dag(_one_task_dag(f"d{i}"))
               for i in range(4)]
    for h in handles:
        sim.env.run(until=h.completion)
    client.stop()
    sim.env.run(until=sim.env.now + 60)
    assert all(h.status.state.name == "SUCCEEDED" for h in handles)
    summaries = client.coordinator.shard_summaries()
    assert [s["dags"] for s in summaries] == [2, 2]
    # Each shard journals only its own DAGs.
    j0 = client.coordinator.shard(0).journal
    j1 = client.coordinator.shard(1).journal
    assert j0 is not j1
    assert set(j0.fold_state()) == {"d0", "d2"}
    assert set(j1.fold_state()) == {"d1", "d3"}


def test_shard_crash_while_idle_does_not_starve_successor():
    """Regression: an AM crashed while parked on its session mailbox
    leaves a zombie getter behind; a DAG submitted afterwards must
    reach the restarted AM, not the zombie, and the sibling shard's
    journal must stay unfenced."""
    sim = make_sim()
    client = sim.tez_client(session=True, shards=2, am_max_attempts=3)
    first = [client.submit_dag(_one_task_dag(f"d{i}")) for i in range(2)]
    for h in first:
        sim.env.run(until=h.completion)
    # Both shard AMs are now idle on their mailboxes; kill shard 1.
    plan = FaultPlan(seed=1).crash_am(at=sim.env.now + 1.0, shard=1)
    sim.chaos(plan, client=client)
    sim.env.run(until=sim.env.now + 10)
    later = [client.submit_dag(_one_task_dag(f"d{i}")) for i in (2, 3)]
    sim.env.run(until=sim.env.now + 300)
    assert all(h.completion.triggered for h in later), (
        "post-crash DAG starved: the zombie attempt consumed it"
    )
    assert all(h.status.state.name == "SUCCEEDED" for h in later)
    # The crash fenced only shard 1 (attempt 1 opened epoch 1, the
    # crash fenced it to 2, attempt 2 opened 3); shard 0 stays at 1.
    assert client.coordinator.shard(0).journal.current_epoch == 1
    assert client.coordinator.shard(1).journal.current_epoch == 3
    assert client.coordinator.shard(1).am_attempts == 2


def test_journal_aimed_am_crash_fires_mid_dag():
    """crash_am(when_journaled=K) kills the AM only once K task
    successes are journaled for an in-flight DAG — never vacuous —
    and recovery replays them without re-execution."""
    sim = make_sim(num_nodes=2, cores_per_node=2)
    client = sim.tez_client(session=True)
    runs = []

    def fn(c, d):
        runs.append((c.task_index, c.env.now))
        return {}

    dag = DAG("aimed")
    dag.add_vertex(fn_vertex("v", fn, 8, setup_seconds=1.0))
    plan = FaultPlan(seed=1).crash_am(at=0.5, shard=0, when_journaled=2)
    sim.chaos(plan, client=client)
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    client.stop()
    sim.env.run(until=sim.env.now + 60)
    assert handle.status.state.name == "SUCCEEDED"
    summary = client.coordinator.shard_summaries()[0]
    assert summary["am_attempts"] == 2
    assert summary["tasks_recovered"] >= 2
    # Every task ran; only tasks whose success was NOT journaled at
    # the crash may have run twice (the journaled ones were recovered
    # from the log, never re-executed).
    indices = [i for i, _ in runs]
    assert set(indices) == set(range(8))
    reruns = len(indices) - 8
    assert reruns <= 8 - summary["tasks_recovered"]


# ------------------------------------------------- telemetry surface

def test_persisted_store_carries_shard_summaries(tmp_path):
    sim = make_sim()
    client = sim.tez_client(session=True, shards=2)
    handles = [client.submit_dag(_one_task_dag(f"d{i}"))
               for i in range(2)]
    for h in handles:
        sim.env.run(until=h.completion)
    client.stop()
    sim.env.run(until=sim.env.now + 60)
    store_dir = str(tmp_path / "store")
    sim.telemetry.persist_store(store_dir)
    shards = read_manifest(store_dir)["shards"]
    assert len(shards) == 2
    for payload in shards:
        assert payload["client"] == "tez"
        line = shard_line(payload)
        assert "fenced_appends=0" in line
        assert "recovered=0" in line


# ------------------------------------------------- cluster-day soak

def test_cluster_day_terminal_digest_is_deterministic():
    from repro.bench.cluster_day import run_cluster_day

    kwargs = dict(sessions=2, dags=6, tasks_per_dag=12, num_nodes=2,
                  verbose=False)
    one = run_cluster_day(**kwargs)
    two = run_cluster_day(**kwargs)
    assert one["ok"], f"{one['violations']} violation(s)"
    assert two["ok"]
    assert one["digest"] == two["digest"]
    assert one["journaled_at_crash"] > 0
    assert one["reexecutions"] == 0
    assert one["am_attempts"] == two["am_attempts"]
