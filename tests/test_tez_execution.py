"""End-to-end DAG execution tests on the simulated stack."""

import pytest

from repro.tez import (
    DAG,
    Descriptor,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    TezConfig,
)
from repro.tez.am import DAGState

from helpers import (
    BC,
    OO,
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


def test_linear_dag_shuffle_groups_correctly():
    sim = make_sim()
    write_kv(sim, "/in", 500)

    def identity(ctx, data):
        return {"agg": list(data["src"])}

    def aggregate(ctx, data):
        return {"out": [(k, sum(vs)) for k, vs in data["mapper"]]}

    mapper = fn_vertex("mapper", identity, -1)
    hdfs_source(mapper, "src", ["/in"])
    agg = fn_vertex("agg", aggregate, 4)
    hdfs_sink(agg, "out", "/out")
    dag = DAG("linear").add_vertex(mapper).add_vertex(agg)
    dag.add_edge(edge(mapper, agg, SG))

    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    result = dict(sim.hdfs.read_file("/out"))
    expected = {}
    for k, v in [(i % 10, i) for i in range(500)]:
        expected[k] = expected.get(k, 0) + v
    assert result == expected


def test_diamond_dag():
    sim = make_sim()
    write_kv(sim, "/in", 200)

    def split(ctx, data):
        recs = data["src"]
        return {
            "evens": [r for r in recs if r[1] % 2 == 0],
            "odds": [r for r in recs if r[1] % 2 == 1],
        }

    def count(ctx, data):
        (name, groups), = data.items()
        return {"join": [(k, ("count", len(vs))) for k, vs in groups]}

    def merge(ctx, data):
        out = {}
        for k, vs in data["evens"]:
            out[k] = out.get(k, 0) + sum(n for _t, n in vs)
        for k, vs in data["odds"]:
            out[k] = out.get(k, 0) + sum(n for _t, n in vs)
        return {"out": sorted(out.items())}

    src = fn_vertex("src", split, -1)
    hdfs_source(src, "src", ["/in"])
    evens = fn_vertex("evens", count, 2)
    odds = fn_vertex("odds", count, 2)
    join = fn_vertex("join", merge, 2)
    hdfs_sink(join, "out", "/out")
    dag = DAG("diamond")
    for v in (src, evens, odds, join):
        dag.add_vertex(v)
    dag.add_edge(edge(src, evens, SG))
    dag.add_edge(edge(src, odds, SG))
    dag.add_edge(edge(evens, join, SG))
    dag.add_edge(edge(odds, join, SG))

    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    result = dict(sim.hdfs.read_file("/out"))
    assert sum(result.values()) == 200


def test_broadcast_edge_delivers_full_copy_to_every_task():
    sim = make_sim()
    sim.hdfs.write("/small", [(i, f"dim{i}") for i in range(10)],
                   record_bytes=16)
    write_kv(sim, "/big", 300)

    def join(ctx, data):
        dim = dict(data["dims"])
        assert len(dim) == 10  # every task sees the full dimension table
        out = []
        for k, values in data["facts"]:   # grouped shuffle input
            for v in values:
                out.append((k, (v, dim[k % 10])))
        return {"out": out}

    dims = fn_vertex("dims", lambda c, d: {"joiner": list(d["src"])}, 2)
    hdfs_source(dims, "src", ["/small"])
    facts = fn_vertex("facts",
                      lambda c, d: {"joiner": list(d["src"])}, -1)
    hdfs_source(facts, "src", ["/big"])
    joiner = fn_vertex("joiner", join, 3)
    hdfs_sink(joiner, "out", "/out")
    dag = DAG("bcast")
    for v in (dims, facts, joiner):
        dag.add_vertex(v)
    dag.add_edge(edge(dims, joiner, BC))
    dag.add_edge(edge(facts, joiner, SG))

    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    result = sim.hdfs.read_file("/out")
    assert len(result) == 300
    assert all(d == f"dim{k % 10}" for k, (_v, d) in result)


def test_one_to_one_edge_pairs_tasks():
    sim = make_sim()

    def produce(ctx, data):
        return {"b": [(ctx.task_index, i) for i in range(5)]}

    def check(ctx, data):
        rows = data["a"]
        # Only records from the twin task arrive.
        assert {k for k, _v in rows} == {ctx.task_index}
        return {"out": rows}

    a = fn_vertex("a", produce, 3)
    b = fn_vertex("b", check, 3)
    hdfs_sink(b, "out", "/out")
    dag = DAG("pair").add_vertex(a).add_vertex(b)
    dag.add_edge(edge(a, b, OO))

    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert len(sim.hdfs.read_file("/out")) == 15


def test_parallelism_inherited_over_one_to_one():
    sim = make_sim()
    write_kv(sim, "/in", 120)
    a = fn_vertex("a", lambda c, d: {"b": list(d["src"])}, -1)
    hdfs_source(a, "src", ["/in"])
    b = fn_vertex("b", lambda c, d: {"out": list(d["a"])}, -1)
    hdfs_sink(b, "out", "/out")
    dag = DAG("inherit").add_vertex(a).add_vertex(b)
    dag.add_edge(edge(a, b, OO))
    status, client = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert len(sim.hdfs.read_file("/out")) == 120


def test_session_reuses_containers_across_dags():
    sim = make_sim()
    write_kv(sim, "/in", 100)

    def build(name):
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, len(vs)) for k, vs in d["m"]
        ]}, 2)
        hdfs_sink(r, "out", f"/out/{name}")
        dag = DAG(name).add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        return dag

    client = sim.tez_client(session=True)
    status1, _ = run_dag(sim, build("dag1"), client=client)
    status2, _ = run_dag(sim, build("dag2"), client=client)
    client.stop()
    assert status1.succeeded and status2.succeeded
    # The task total is counted before the finished DAG's runtime graph
    # is released, and the graph is released.
    for status in (status1, status2):
        assert status.metrics["total_tasks"] \
            == status.metrics["tasks_succeeded"] > 2
    am = client.last_am
    assert not (am._vertices or am._edge_managers or am._init_contexts)
    # Containers are shared across tasks and across DAGs: far fewer
    # launches than tasks, and the second DAG runs warm (faster).
    total_tasks = (status1.metrics["total_tasks"]
                   + status2.metrics["total_tasks"])
    total_launched = (status1.metrics["containers_launched"]
                      + status2.metrics["containers_launched"])
    total_reuses = (status1.metrics["container_reuses"]
                    + status2.metrics["container_reuses"])
    assert total_launched < total_tasks
    assert total_reuses >= 1
    assert status2.elapsed < status1.elapsed


def test_prewarm_speeds_up_first_dag():
    def one_run(prewarm):
        sim = make_sim()
        write_kv(sim, "/in", 100)
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                      cpu_per_record=1e-4)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, len(vs)) for k, vs in d["m"]
        ]}, 2, cpu_per_record=1e-4)
        hdfs_sink(r, "out", "/out")
        dag = DAG("d").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        client = sim.tez_client(session=True)
        client.start()
        if prewarm:
            client.prewarm(4)
            sim.env.run(until=sim.env.now + 30)  # let containers warm
        t0 = sim.env.now
        status, _ = run_dag(sim, dag, client=client)
        client.stop()
        assert status.succeeded
        return status.finish_time - t0

    cold = one_run(prewarm=False)
    warm = one_run(prewarm=True)
    assert warm < cold


def test_auto_parallelism_shrinks_reducers():
    sim = make_sim()
    write_kv(sim, "/in", 200, record_bytes=16)

    reduce_done = []

    def reduce_fn(ctx, data):
        reduce_done.append(ctx.parallelism)
        return {"out": [(k, len(vs)) for k, vs in data["m"]]}

    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", reduce_fn, 10)  # over-provisioned on purpose
    r.vertex_manager = Descriptor(
        ShuffleVertexManager,
        ShuffleVertexManagerConfig(
            auto_parallelism=True,
            desired_task_input_bytes=10_000_000,  # tiny data -> 1 task
            slowstart_min_fraction=0.0,
        ),
    )
    hdfs_sink(r, "out", "/out")
    dag = DAG("auto").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))

    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    # Shrunk from 10 to 1 reducer, and the data still groups correctly.
    assert reduce_done and all(p == 1 for p in reduce_done)
    result = dict(sim.hdfs.read_file("/out"))
    assert sum(result.values()) == 200


def test_slow_start_schedules_reducers_before_all_maps_done():
    sim = make_sim(num_nodes=2, nodes_per_rack=2)
    write_kv(sim, "/in", 400, record_bytes=64)

    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                  cpu_per_record=5e-4)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, len(vs)) for k, vs in d["m"]
    ]}, 2)
    r.vertex_manager = Descriptor(
        ShuffleVertexManager,
        ShuffleVertexManagerConfig(
            slowstart_min_fraction=0.1, slowstart_max_fraction=0.5,
        ),
    )
    hdfs_sink(r, "out", "/out")
    dag = DAG("slow").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    status, client = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    am = client.last_am
    assert dict(sim.hdfs.read_file("/out"))


def test_initializer_splits_carry_locality():
    sim = make_sim()
    f = sim.hdfs.write("/in", [(i, i) for i in range(400)], record_bytes=32)
    seen_nodes = []

    def probe(ctx, data):
        seen_nodes.append(ctx.node_id)
        return {"out": list(data["src"])}

    m = fn_vertex("m", probe, -1)
    hdfs_source(m, "src", ["/in"])
    hdfs_sink(m, "out", "/out")
    dag = DAG("loc").add_vertex(m)
    status, _ = run_dag(sim, dag)
    assert status.succeeded
    # Most tasks should have run on a replica node of their block.
    local = 0
    for block, node in zip(f.blocks, seen_nodes):
        if node in block.replica_nodes:
            local += 1
    assert local >= len(f.blocks) // 2


def test_object_registry_shared_across_tasks_in_container():
    sim = make_sim(num_nodes=1, nodes_per_rack=1)
    write_kv(sim, "/in", 50)
    builds = []

    def probe(ctx, data):
        from repro.tez import Scope
        cached = ctx.cache_get("lookup")
        if cached is None:
            builds.append(ctx.task_index)
            ctx.cache_put(Scope.DAG, "lookup", {"built_by": ctx.task_index})
        return {"out": list(data["src"])}

    m = fn_vertex("m", probe, -1)
    hdfs_source(m, "src", ["/in"], max_splits=4)
    hdfs_sink(m, "out", "/out")
    dag = DAG("reg").add_vertex(m)
    # Single node, 1 vcore per task, plenty of tasks: heavy reuse.
    status, _ = run_dag(sim, dag)
    assert status.succeeded
    # The lookup table was built at most once per container.
    am_metrics = status.metrics
    assert len(builds) <= am_metrics["containers_launched"] + 1


def test_dag_status_metrics_populated():
    sim = make_sim()
    write_kv(sim, "/in", 100)
    m = fn_vertex("m", lambda c, d: {"out": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    hdfs_sink(m, "out", "/out")
    dag = DAG("metrics").add_vertex(m)
    status, _ = run_dag(sim, dag)
    assert status.succeeded
    assert status.metrics["total_tasks"] >= 1
    assert status.metrics["tasks_succeeded"] == status.metrics["total_tasks"]
    assert status.elapsed > 0


def test_failed_dag_reports_state():
    sim = make_sim()
    write_kv(sim, "/in", 10)

    def boom(ctx, data):
        raise RuntimeError("bad record")

    m = fn_vertex("m", boom, -1)
    hdfs_source(m, "src", ["/in"])
    hdfs_sink(m, "out", "/out")
    dag = DAG("fail").add_vertex(m)
    status, _ = run_dag(sim, dag, config=TezConfig(max_task_attempts=2))
    assert status.state == DAGState.FAILED
    assert "bad record" in status.diagnostics
    # Sink was aborted: no committed output.
    assert not sim.hdfs.exists("/out")


def test_dag_counters_aggregated():
    sim = make_sim()
    write_kv(sim, "/in", 200)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, len(vs)) for k, vs in d["m"]
    ]}, 2)
    hdfs_sink(r, "out", "/out")
    dag = DAG("counters").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    status, _ = run_dag(sim, dag)
    assert status.succeeded
    counters = status.metrics["counters"]
    assert counters["hdfs_bytes_read"] > 0
    assert counters["shuffle_bytes_written"] > 0
    assert counters["shuffle_bytes_read"] == \
        counters["shuffle_bytes_written"]
    assert counters["cpu_seconds"] > 0
