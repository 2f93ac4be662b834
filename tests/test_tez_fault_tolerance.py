"""Fault tolerance, speculation, preemption, recovery (paper 4.2/4.3)."""

import pytest

from repro.tez import DAG, Descriptor, TezConfig
from repro.tez.am import DAGState

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
    run_dag,
)


def write_kv(sim, path, n, record_bytes=32):
    records = [(i % 10, i) for i in range(n)]
    sim.hdfs.write(path, records, record_bytes=record_bytes)
    return records


def two_stage_dag(sim, name="ft", map_fn=None, reduce_fn=None,
                  reducers=2):
    map_fn = map_fn or (lambda c, d: {"r": list(d["src"])})
    reduce_fn = reduce_fn or (lambda c, d: {"out": [
        (k, sum(v for v in vs)) for k, vs in d["m"]
    ]})
    m = fn_vertex("m", map_fn, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", reduce_fn, reducers)
    hdfs_sink(r, "out", f"/out/{name}")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def expected_sums(n):
    out = {}
    for i in range(n):
        out[i % 10] = out.get(i % 10, 0) + i
    return out


def test_transient_task_failure_is_retried():
    sim = make_sim()
    write_kv(sim, "/in", 100)
    failures = {"count": 0}

    def flaky_map(ctx, data):
        if ctx.task_index == 0 and ctx.attempt == 0:
            failures["count"] += 1
            raise RuntimeError("transient")
        return {"r": list(data["src"])}

    dag = two_stage_dag(sim, map_fn=flaky_map)
    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert failures["count"] == 1
    assert status.metrics["attempts_failed"] == 1
    assert dict(sim.hdfs.read_file("/out/ft")) == expected_sums(100)


def test_permanent_failure_kills_dag_after_max_attempts():
    sim = make_sim()
    write_kv(sim, "/in", 50)
    attempts = []

    def doomed(ctx, data):
        attempts.append(ctx.attempt)
        raise ValueError("always broken")

    dag = two_stage_dag(sim, map_fn=doomed)
    status, _ = run_dag(sim, dag, config=TezConfig(max_task_attempts=3))
    assert status.state == DAGState.FAILED
    assert "always broken" in status.diagnostics
    # Each failing task got exactly max_task_attempts tries.
    per_task = {}
    for a in attempts:
        per_task[a] = per_task.get(a, 0) + 1
    assert max(attempts) == 2  # attempts 0,1,2


def test_lost_shuffle_data_triggers_producer_reexecution():
    """The paper 4.3 walk-back: consumer hits a missing spill, sends
    InputReadError, the producer re-runs, the consumer finishes."""
    sim = make_sim()
    write_kv(sim, "/in", 100)
    map_runs = []

    def tracking_map(ctx, data):
        map_runs.append((ctx.task_index, ctx.attempt))
        return {"r": list(data["src"])}

    # Slow reducers so we can sabotage the spill mid-flight.
    def slow_reduce(ctx, data):
        return {"out": [(k, sum(vs)) for k, vs in d_items(data)]}

    def d_items(data):
        return data["m"]

    dag = two_stage_dag(sim, map_fn=tracking_map, reduce_fn=slow_reduce)

    client = sim.tez_client()
    handle = client.submit_dag(dag)

    # Drop every spill of map task 0 as soon as it registers, once.
    dropped = {"done": False}

    def saboteur():
        while not dropped["done"]:
            yield sim.env.timeout(0.25)
            for service in sim.shuffle.services.values():
                for spill_id in list(service._spills):
                    if "/m/t0_a0" in spill_id:
                        service.drop_spill(spill_id)
                        dropped["done"] = True

    sim.env.process(saboteur())
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    if dropped["done"]:
        # Map task 0 ran at least twice (original + regeneration).
        assert (0, 1) in map_runs
        assert status.metrics["reexecutions"] >= 1
    assert dict(sim.hdfs.read_file("/out/ft")) == expected_sums(100)


def test_node_crash_during_run_recovers():
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    write_kv(sim, "/in", 300)

    def slowish(ctx, data):
        return {"r": list(data["src"])}

    dag = two_stage_dag(sim, map_fn=slowish, reducers=3)
    client = sim.tez_client()
    handle = client.submit_dag(dag)

    def crasher():
        yield sim.env.timeout(8)
        # Crash a node that is not running the AM.
        am_node = client.last_am.ctx.am_container.node_id \
            if client.last_am else None
        for node_id in sorted(sim.cluster.nodes):
            if node_id != am_node:
                sim.cluster.crash_node(node_id)
                break

    sim.env.process(crasher())
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert dict(sim.hdfs.read_file("/out/ft")) == expected_sums(300)


def test_reliable_edge_data_survives_logically():
    """PERSISTED_RELIABLE edges act as a barrier: node loss does not
    proactively re-run producers."""
    from repro.tez import DataSourceType
    sim = make_sim()
    write_kv(sim, "/in", 100)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 2)
    hdfs_sink(r, "out", "/out/rel")
    dag = DAG("rel").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG,
                      data_source=DataSourceType.PERSISTED_RELIABLE))
    status, client = run_dag(sim, dag)
    assert status.succeeded
    # Now crash nodes: the AM must not re-execute anything (DAG done).
    assert status.metrics["reexecutions"] == 0


def test_speculation_rescues_straggler():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    write_kv(sim, "/in", 400, record_bytes=64)
    # Degrade one node so tasks landing there straggle.
    sim.cluster.slow_node("node0003", 0.05)

    def mapper(ctx, data):
        return {"r": list(data["src"])}

    dag = two_stage_dag(sim, map_fn=mapper, reducers=2)
    config = TezConfig(
        speculation_enabled=True,
        speculation_min_completed=2,
        speculation_slowdown_factor=1.3,
        speculation_check_interval=1.0,
    )
    status, _ = run_dag(sim, dag, config=config)
    assert status.succeeded, status.diagnostics
    assert dict(sim.hdfs.read_file("/out/ft")) == expected_sums(400)


def test_speculation_metrics_report_wins():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    write_kv(sim, "/in", 400, record_bytes=64)
    sim.cluster.slow_node("node0000", 0.02)
    sim.cluster.slow_node("node0001", 1.0)

    dag = two_stage_dag(sim, reducers=2)
    config = TezConfig(
        speculation_enabled=True,
        speculation_min_completed=2,
        speculation_slowdown_factor=1.3,
        speculation_check_interval=1.0,
    )
    status, _ = run_dag(sim, dag, config=config)
    assert status.succeeded
    # If any speculative attempt launched, bookkeeping must be sane.
    assert status.metrics["speculative_wins"] <= \
        status.metrics["speculative_attempts"]


def test_am_restart_recovers_completed_work():
    sim = make_sim()
    write_kv(sim, "/in", 200)
    map_runs = []

    def tracking_map(ctx, data):
        map_runs.append((ctx.task_index, ctx.attempt))
        return {"r": list(data["src"])}

    def slow_reduce(ctx, data):
        return {"out": [(k, sum(vs)) for k, vs in data["m"]]}

    m = fn_vertex("m", tracking_map, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", slow_reduce, 2, cpu_per_record=2e-3)
    hdfs_sink(r, "out", "/out/rec")
    dag = DAG("rec").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))

    client = sim.tez_client(session=True)
    client.start()
    handle = client.submit_dag(dag)

    def am_killer():
        # Wait until some map tasks finished, then crash the AM the
        # way chaos injection does.
        while client.last_am is None or client.last_am.registry \
                .counter("tasks_succeeded").value < 2:
            yield sim.env.timeout(0.5)
        client.last_am.crash()

    sim.env.process(am_killer())
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    client.stop()
    assert dict(sim.hdfs.read_file("/out/rec")) == expected_sums(200)
    # Recovery kicked in: at least one map success was replayed, i.e.
    # the map vertex did not re-run every task from scratch... the
    # total distinct (task, attempt=0) runs must cover each task once;
    # recovered tasks must not appear twice with attempt 0.
    first_runs = [t for t, a in map_runs if a == 0]
    assert len(set(first_runs)) <= len(first_runs)  # sanity
    assert status.metrics["tasks_succeeded"] >= 1


def test_deadlock_preemption_frees_upstream():
    """Out-of-order scheduled downstream tasks occupying the whole
    cluster are preempted so upstream tasks can run (paper 3.4)."""
    from repro.tez import (
        DataSourceDescriptor,
        Descriptor as D,
        ImmediateStartVertexManager,
    )
    from repro.tez.library import HdfsInput, HdfsInputInitializer

    class SlowInitializer(HdfsInputInitializer):
        """Delays split calculation so the downstream vertex's
        immediately-scheduled tasks grab the whole cluster first."""

        def initialize(self):
            yield self.ctx.env.timeout(3.0)
            splits = yield from super().initialize()
            return splits

    # Tiny cluster: AM (2048) + exactly 2 task slots of 1024.
    sim = make_sim(num_nodes=1, nodes_per_rack=1,
                   memory_per_node_mb=4096, cores_per_node=4)
    write_kv(sim, "/in", 50)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                  cpu_per_record=1e-3)
    m.resource_mb = 1024
    m.add_data_source("src", DataSourceDescriptor(
        D(HdfsInput),
        D(SlowInitializer, {"paths": ["/in"], "max_splits": 2}),
    ))
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 2)
    r.resource_mb = 1024
    # Force the consumer to schedule immediately (out of order).
    r.vertex_manager = D(ImmediateStartVertexManager)
    hdfs_sink(r, "out", "/out/dl")
    dag = DAG("dl").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    config = TezConfig(
        deadlock_check_interval=2.0,
        deadlock_pending_timeout=5.0,
        container_idle_timeout=2.0,
    )
    status, _ = run_dag(sim, dag, config=config)
    assert status.succeeded, status.diagnostics
    assert status.metrics["preemptions"] >= 1
    assert dict(sim.hdfs.read_file("/out/dl")) == expected_sums(50)


def test_shuffle_transient_errors_are_retried_invisibly():
    sim = make_sim(shuffle_transient_error_rate=0.3)
    write_kv(sim, "/in", 150)
    dag = two_stage_dag(sim, reducers=3)
    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert dict(sim.hdfs.read_file("/out/ft")) == expected_sums(150)
    # No task-level failures: retries were absorbed by the fetcher.
    assert status.metrics["attempts_failed"] == 0


@pytest.mark.xfail(strict=True, reason=(
    "attempt_body's generator path interrupts only its event pump: the "
    "proc:/read:/fetch: children of a killed attempt run on "
    "(EXPERIMENTS.md divergence 6)"))
def test_killed_attempt_does_no_io_after_its_kill():
    """A reducer preempted mid-gather must stop there: none of its
    fetch spans may end after the kill, and no InputReadErrorEvent of
    its may reach the router (here every spill is dropped at the kill,
    so each fetch it still makes reports one)."""
    from repro.tez.am.structures import AttemptEndReason, AttemptState
    from repro.tez.events import InputReadErrorEvent

    sim = make_sim()
    paths = [f"/in/{i}" for i in range(13)]
    for path in paths:
        sim.hdfs.write(path, [(j % 10, j) for j in range(40)],
                       record_bytes=1 << 20)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", paths)
    # The HDFS sink keeps the reducer off the inline attempt path.
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 1)
    hdfs_sink(r, "out", "/out/zombie")
    dag = DAG("zombie").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    killed = {}
    uplinks = []

    def fetch_spans(attempt_id):
        return sim.telemetry.store.spans(kind="fetch", owner=attempt_id)

    def kill_mid_gather():
        while True:
            yield sim.env.timeout(0.05)
            am = client.last_am
            tasks = am._vertices["r"].tasks if am is not None \
                and "r" in am._vertices else []
            if not tasks or not tasks[0].attempts:
                continue
            attempt = tasks[0].attempts[0]
            if attempt.state == AttemptState.RUNNING and any(
                    s.end is not None for s in fetch_spans(
                        attempt.attempt_id)):
                break
        killed.update(at=sim.env.now, attempt=attempt)
        send = am.router.event_from_task
        am.router.event_from_task = lambda a, event: (
            uplinks.append((a, event)), send(a, event))
        for node_id in sim.cluster.nodes:
            service = sim.shuffle.on_node(node_id)
            for spill_id in service.spill_ids():
                service.drop_spill(spill_id)
        am.scheduler.kill_attempt(attempt, AttemptEndReason.PREEMPTED)

    sim.env.process(kill_mid_gather())
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    # (The fetch in flight at the kill may never close its span.)
    ended = [s.end for s in fetch_spans(killed["attempt"].attempt_id)
             if s.end is not None]
    assert any(end <= killed["at"] for end in ended)
    assert not [end for end in ended if end > killed["at"]]
    assert not [event for attempt, event in uplinks
                if attempt is killed["attempt"]
                and isinstance(event, InputReadErrorEvent)]
