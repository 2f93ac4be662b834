"""What a finished DAG or query leaves behind: nothing of its own.

After every query or DAG of one session - Hive on Tez and on MR, Pig on
Tez and on MR, Spark on Tez - no spill of a finished DAG remains on any
node, no DAG- or VERTEX-scoped registry entry of a finished DAG remains
in a container the session AM holds, the recovery journal holds none
of its routed events or spill references, and HDFS holds only the
inputs and the outputs the user asked for (no scratch, no staging). A
journal-aimed AM crash mid-DAG still recovers its producers from their
spills, and a ten-DAG iterative session retains no more host memory
after its tenth DAG than after its second (DESIGN.md "What a finished
DAG or query leaves behind"); a session's telemetry counters and AM
registry hold no more after its fifth DAG than after its first, and a
finished one-shot DAG is freed once its caller lets go of it. A map
join's hash table is built once per MR job run
and is gone when the job ends, a task that finds its table cached
never evaluates the build side, and a finished MR job's application
master is freed without the cyclic collector.
"""

import gc
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

from repro import FaultPlan
from repro.engines.hive import Catalog, HiveSession, reference
from repro.engines.hive.ast_nodes import BinaryOp, Column, Literal
from repro.engines.hive.fragments import InputLeaf
from repro.engines.hive.plan import Filter, Join
from repro.engines.hive.reference import run_operators
from repro.engines.mapreduce import JobHandle, yarn_runner
from repro.engines.pig import PigRunner, PigScript
from repro.engines.spark import SparkContext
from repro.shuffle import SpillRef
from repro.tez import DAG, Scope
from repro.tez.events import InputReadErrorEvent, TezEvent

from helpers import SG, edge, fn_vertex, hdfs_sink, hdfs_source, make_sim

# One reachability walk, shared with tools/gc_report.py's --check.
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "gc_report.py"
_spec = importlib.util.spec_from_file_location("gc_report", _TOOL)
gc_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gc_report)
_reachable = gc_report.reachable


def spills(sim) -> list:
    return [spill_id for service in sim.shuffle.services.values()
            for spill_id in service.spill_ids()]


def registries(client) -> list:
    """The object registries of the containers the session AM holds."""
    slots = client.last_am.scheduler.slots.values()
    return [slot.container.tez_registry for slot in slots
            if hasattr(slot.container, "tez_registry")]


def dag_scoped(client) -> list:
    return [(key, scope, scope_id)
            for registry in registries(client)
            for key, (scope, scope_id, _v) in registry._entries.items()
            if scope != Scope.SESSION]


def assert_nothing_left(sim, client, kept) -> None:
    assert spills(sim) == []
    if client is not None:
        assert dag_scoped(client) == []
    assert set(sim.hdfs.list_files()) == set(kept)


# ------------------------------------------------------------------ Hive
ORDERS = [(i, 10 + i % 5, float(i * 7 % 113), "OPEN" if i % 3 else "DONE")
          for i in range(1, 200)]
CUSTOMERS = [(10 + i, f"c{i}", ("EU", "US", "APAC")[i % 3])
             for i in range(5)]

HIVE_QUERIES = [
    "SELECT o_status, COUNT(*) AS n, SUM(o_total) AS t FROM orders "
    "GROUP BY o_status",
    # customers is small: a broadcast join whose hash table is cached
    # DAG-scoped in every container that probes it.
    "SELECT c_region, SUM(o_total) AS rev FROM orders "
    "JOIN customers ON o_custkey = c_id GROUP BY c_region "
    "ORDER BY rev DESC",
    "SELECT o_id, o_total FROM orders ORDER BY o_total DESC LIMIT 5",
]


class _Table(dict):
    """A hash table a test can hold a weak reference to."""


def _counting(monkeypatch) -> tuple[list, list]:
    """Count ``build_table`` / ``probe`` calls of the Hive operators;
    every table built is a ``_Table`` whose weak reference is kept."""
    tables, probes = [], []
    build, probe = reference.build_table, reference.probe

    def counting_build(keys, rows):
        table = _Table(build(keys, rows))
        tables.append(weakref.ref(table))
        return table

    def counting_probe(*args):
        probes.append(1)
        return probe(*args)

    monkeypatch.setattr(reference, "build_table", counting_build)
    monkeypatch.setattr(reference, "probe", counting_probe)
    return tables, probes


def test_mr_map_join_builds_its_table_once_per_job(monkeypatch):
    """Each map task of the map-join job reads the cached build side,
    but the job run decodes and hashes it once, and the table is gone
    by the time the job reports its result."""
    tables, probes = _counting(monkeypatch)
    alive_at_job_end = []
    finish = JobHandle._finish

    def watched_finish(handle, result):
        alive_at_job_end.append(sum(t() is not None for t in tables))
        finish(handle, result)

    monkeypatch.setattr(JobHandle, "_finish", watched_finish)
    sim = make_sim()
    catalog = Catalog()
    # Wide orders rows: several splits, so several map tasks probe.
    catalog.create_table(sim.hdfs, "orders",
                         ["o_id", "o_custkey", "o_total", "o_status"],
                         ORDERS, row_bytes=4 * 1024 * 1024)
    catalog.create_table(sim.hdfs, "customers",
                         ["c_id", "c_name", "c_region"], CUSTOMERS)
    session = HiveSession(sim, catalog)
    sql = HIVE_QUERIES[1]
    want = session.run(sql, backend="reference").rows
    del tables[:], probes[:]
    got = session.run(sql, backend="mr")
    assert sorted(got.rows, key=repr) == sorted(want, key=repr)
    assert got.jobs == 2                 # the map join, then the sort
    assert len(probes) > 1               # one probe per map task
    assert len(tables) == 1              # one build for the whole job
    assert alive_at_job_end == [0, 0]
    session.close()


class _Registry(dict):
    """A task context's registry calls over one dict."""

    gets = 0

    def cache_get(self, key):
        self.gets += 1
        return self.get(key)

    def cache_put(self, _scope, key, value):
        self[key] = value


def test_tez_registry_hit_does_not_evaluate_the_broadcast_side():
    """A probe task whose container already holds the DAG's table for
    a broadcast join reads neither the build side's input nor the
    operators above it."""
    probe_leaf, build_leaf = InputLeaf("probe"), InputLeaf("build")
    build = Filter(build_leaf, BinaryOp(">", Column(None, "c_id"),
                                        Literal(10)))
    join = Join(probe_leaf, build, Column(None, "o_custkey"),
                Column(None, "c_id"))
    join.strategy = Join.BROADCAST
    join.right_columns = ["c_id", "c_region"]
    registry = _Registry()
    inputs = {
        "probe": [{"o_custkey": k} for k in (11, 12, 13, 99)],
        "build": [{"c_id": 10 + i, "c_region": r}
                  for i, r in enumerate(("EU", "US", "APAC", "EU"))],
    }
    read = []

    def leaf_rows(leaf):
        read.append(leaf.name)
        return inputs[leaf.name]

    first = run_operators(join, leaf_rows, registry)
    assert read == ["probe", "build"] and len(registry) == 1
    read.clear()
    assert run_operators(join, leaf_rows, registry) == first
    assert read == ["probe"]
    assert registry.gets == 2 and len(first) == 3


def test_hive_queries_leave_nothing_behind():
    sim = make_sim()
    catalog = Catalog()
    catalog.create_table(sim.hdfs, "orders",
                         ["o_id", "o_custkey", "o_total", "o_status"],
                         ORDERS)
    catalog.create_table(sim.hdfs, "customers",
                         ["c_id", "c_name", "c_region"], CUSTOMERS)
    inputs = sim.hdfs.list_files()
    session = HiveSession(sim, catalog)
    session.prewarm(4)
    for sql in HIVE_QUERIES * 2:
        want = session.run(sql, backend="reference").rows
        for backend in ("tez", "mr"):
            got = session.run(sql, backend=backend)
            assert sorted(got.rows, key=repr) == sorted(want, key=repr)
            assert_nothing_left(sim, session.tez_client, inputs)
    # The broadcast join did use the registry (a miss, then a put).
    assert any(r.misses for r in registries(session.tez_client))
    session.close()


def test_finished_mr_jobs_keep_no_app_master_alive(monkeypatch):
    """Once a Hive-on-MR job has unregistered, nothing of its AM stays
    reachable: its allocation and completion pumps no longer wait on the
    context's stores, so the AM is freed by reference counting alone -
    the kernel holds the cyclic collector while it runs (DESIGN.md "The
    host collector") - and no container of its application is left on
    a node."""
    ams = []
    init = yarn_runner._MRAppMaster.__init__

    def tracked_init(am, *args):
        init(am, *args)
        ams.append(weakref.ref(am))

    monkeypatch.setattr(yarn_runner._MRAppMaster, "__init__", tracked_init)
    sim = make_sim()
    catalog = Catalog()
    catalog.create_table(sim.hdfs, "orders",
                         ["o_id", "o_custkey", "o_total", "o_status"],
                         ORDERS)
    catalog.create_table(sim.hdfs, "customers",
                         ["c_id", "c_name", "c_region"], CUSTOMERS)
    session = HiveSession(sim, catalog)
    wanted = [session.run(sql, backend="reference").rows
              for sql in HIVE_QUERIES]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for sql, want in zip(HIVE_QUERIES, wanted):
            got = session.run(sql, backend="mr")
            assert sorted(got.rows, key=repr) == sorted(want, key=repr)
        alive = sum(ref() is not None for ref in ams)
    finally:
        if collecting:
            gc.enable()
    assert len(ams) >= len(HIVE_QUERIES) and alive == 0
    finished = {app_id for app_id, record
                in sim.rm.am_service.records.items()
                if record.handle.completion.triggered}
    assert [cid for nm in sim.rm.node_managers.values()
            for cid in nm.containers if cid.app_id in finished] == []
    session.close()


# ------------------------------------------------------------------- Pig
LOGS = [(f"u{i % 7}", ("/home", "/cart", "/item")[i % 3], 10 * i,
         (200, 404, 500)[i % 3]) for i in range(120)]
USERS = [(f"u{i}", ("EU", "US")[i % 2]) for i in range(6)]


def _pig_script(tag: str) -> PigScript:
    s = PigScript(f"life_{tag}")
    logs = s.load("/data/logs", ["user", "page", "ms", "status"])
    users = s.load("/data/users", ["user", "region"])
    joined = logs.join(users, ["user"], ["user"])
    per_region = joined.aggregate(["region"], {"n": ("count", None)})
    per_region.store(f"/out/{tag}/regions")
    logs.filter(lambda r: r["status"] == 500) \
        .order_by(["ms"]).store(f"/out/{tag}/errors")
    return s


def test_pig_scripts_leave_nothing_behind():
    sim = make_sim()
    sim.hdfs.write("/data/logs", LOGS, record_bytes=48)
    sim.hdfs.write("/data/users", USERS, record_bytes=24)
    kept = sim.hdfs.list_files()
    runner = PigRunner(sim)
    for i in range(2):
        for backend in ("tez", "mr"):
            tag = f"{backend}{i}"
            result = runner.run(_pig_script(tag), backend=backend)
            kept += list(result.outputs)
            assert_nothing_left(sim, runner.tez_client
                                if backend == "tez" else None, kept)
    assert_nothing_left(sim, runner.tez_client, kept)
    runner.close()


# ----------------------------------------------------------------- Spark
def test_spark_on_tez_actions_leave_nothing_behind():
    sim = make_sim()
    sim.hdfs.write("/data/kv", [(k, v) for v in range(60)
                                for k in "abcde"], record_bytes=16)
    kept = sim.hdfs.list_files()
    sc = SparkContext(sim, backend="tez")
    base = sc.hdfs_file("/data/kv").reduce_by_key(lambda a, b: a + b)
    cached = sc.hdfs_file("/data/kv").map_values(lambda v: v * 2).cache()
    client = sc.backend.client
    assert sc.run(base.count()) == 5
    assert_nothing_left(sim, client, kept)
    assert dict(sc.run(base.collect()))["a"] == sum(range(60))
    assert_nothing_left(sim, client, kept)
    assert sc.run(cached.count()) == 300
    # The RDD cache is not scratch: it stays for the next job.
    kept += sim.hdfs.list_files("/tmp/spark/cache/")
    assert len(kept) == 2
    assert_nothing_left(sim, client, kept)
    sc.run(base.save_as_file("/out/sums"))
    kept.append("/out/sums")
    assert_nothing_left(sim, client, kept)
    sc.stop()


# -------------------------------------------------------- AM recovery
def _two_stage(name: str, runs: list) -> DAG:
    def mapper(ctx, data):
        runs.append((name, ctx.task_index, ctx.attempt))
        return {"r": list(data["src"])}

    m = fn_vertex("m", mapper, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]]}, 2, setup_seconds=3.0)
    hdfs_sink(r, "out", f"/out/{name}")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def test_journal_aimed_crash_still_recovers_producers_from_spills():
    """The first DAG's spills go when it ends; the second DAG's map
    outputs are still there when its AM crashes once every map success
    is journaled, so the restarted AM recovers the maps instead of
    re-running them - and frees their spills when the DAG ends."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    runs: list = []
    first = client.submit_dag(_two_stage("one", runs))
    sim.env.run(until=first.completion)
    assert first.status.succeeded, first.status.diagnostics
    assert spills(sim) == []
    maps = len(runs)
    plan = FaultPlan(seed=1).crash_am(at=sim.env.now + 0.1, shard=0,
                                      when_journaled=maps)
    sim.chaos(plan, client=client)
    second = client.submit_dag(_two_stage("two", runs))
    sim.env.run(until=second.completion)
    assert second.status.succeeded, second.status.diagnostics
    summary = client.coordinator.shard_summaries()[0]
    assert summary["am_attempts"] == 2
    assert summary["tasks_recovered"] == maps
    assert second.status.metrics["reexecutions"] == 0
    assert sorted(r for r in runs if r[0] == "two") == \
        [("two", i, 0) for i in range(maps)]
    assert dict(sim.hdfs.read_file("/out/two")) == \
        dict(sim.hdfs.read_file("/out/one"))
    assert spills(sim) == []
    client.stop()
    sim.env.run(until=sim.env.now + 60)


def test_crash_between_spill_and_journaled_success_frees_those_spills():
    """An AM crash while the maps write their registered spills, before
    any success is journaled, leaves the restarted AM nothing to recover:
    it re-runs the maps under its own id for the DAG. The crashed
    attempt's spills are dead as well, and go when the DAG ends."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    runs: list = []
    first = client.submit_dag(_two_stage("one", runs))
    sim.env.run(until=first.completion)
    assert first.status.succeeded, first.status.diagnostics
    second = client.submit_dag(_two_stage("two", runs))
    crashed: list = []

    def crash_once_spilled():
        while not spills(sim):
            yield sim.env.timeout(0.001)
        crashed.extend(spills(sim))
        client.last_am.crash()

    sim.env.process(crash_once_spilled())
    sim.env.run(until=second.completion)
    assert second.status.succeeded, second.status.diagnostics
    summary = client.coordinator.shard_summaries()[0]
    assert summary["am_attempts"] == 2
    assert summary["tasks_recovered"] == 0
    assert crashed and all(s.startswith("two#2/m/") for s in crashed)
    assert dict(sim.hdfs.read_file("/out/two")) == \
        dict(sim.hdfs.read_file("/out/one"))
    assert spills(sim) == []
    client.stop()
    sim.env.run(until=sim.env.now + 60)


def test_read_error_from_a_finished_dags_straggler_is_dropped():
    """A killed attempt's children run on after their DAG ends
    (EXPERIMENTS.md divergence 6); once its spills are freed, their next
    fetch fails and reports an InputReadErrorEvent. Arriving while the
    session's next DAG - same vertex names - runs, it must not re-run
    that DAG's producer."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    client.start()
    sim.env.run(until=5.0)
    am = client.last_am
    seen = []
    send = am.router.event_from_task
    am.router.event_from_task = lambda a, event: (
        seen.append(a), send(a, event))
    runs: list = []
    first = client.submit_dag(_two_stage("one", runs))
    sim.env.run(until=first.completion)
    straggler = seen[0]
    assert straggler.task.vertex.dag_id == "one#1"
    second = client.submit_dag(_two_stage("two", runs))
    # Every map of "two" is done; its reducers sit in their set-up.
    sim.env.run(until=sim.env.now + 2.5)
    assert len(runs) == 2 * len(set(i for _n, i, _a in runs))
    producer = am._vertices["m"].tasks[0]
    am.router.event_from_task(straggler, InputReadErrorEvent(
        source_vertex="m", source_task_index=0,
        version=producer.output_version, diagnostics="spill freed"))
    sim.env.run(until=second.completion)
    assert second.status.succeeded, second.status.diagnostics
    assert second.status.metrics["reexecutions"] == 0
    assert ("two", 0, 1) not in runs


def test_a_finished_dag_leaves_nothing_in_the_journal():
    """While a DAG runs, the recovery journal holds its journaled
    successes' routed events and the spill references they carry. Once
    the DAG is finished, none of them is reachable from the journal,
    not even while the session's next DAG runs and after it ends."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    runs: list = []
    kinds = (TezEvent, SpillRef)
    first = client.submit_dag(_two_stage("one", runs))
    held: list = []
    while not held and not first.completion.triggered:
        sim.env.run(until=sim.env.now + 0.25)
        held = _reachable(client.coordinator.shard(0).journal, kinds)
    assert any(isinstance(o, SpillRef) for o in held), \
        "no journaled spill reference while the first DAG ran"
    sim.env.run(until=first.completion)
    second = client.submit_dag(_two_stage("two", runs))
    sim.env.run(until=sim.env.now + 2.0)
    live = _reachable(client.coordinator.shard(0).journal, kinds)
    assert live, "nothing journaled while the second DAG ran"
    first_ids = {id(o) for o in held}
    assert [o for o in live if id(o) in first_ids] == []
    sim.env.run(until=second.completion)
    assert first.status.succeeded and second.status.succeeded
    assert _reachable(client.coordinator.shard(0).journal, kinds) == []
    client.stop()
    sim.env.run(until=sim.env.now + 60)


def test_telemetry_keeps_nothing_per_task_run():
    """Five DAGs of one shape through one session: what the telemetry's
    metrics and the AM's registry hold stays the same size after each -
    counters only, no sample per placement, task run or tick."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    tel = sim.telemetry
    held = []
    for i in range(5):
        handle = client.submit_dag(_two_stage(f"d{i}", []))
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded, handle.status.diagnostics
        held.append((len(_reachable(tel.metrics, object)),
                     sum(len(_reachable(registry, object))
                         for registry in tel.registries.values())))
    assert held == [held[0]] * 5, held
    client.stop()
    sim.env.run(until=sim.env.now + 60)


def test_a_session_keeps_nothing_of_a_finished_dag():
    """Six DAGs of one shape through one session: from the second on,
    what the client reaches stays the same size after each. (While the
    client watched its application with one process per DAG, each
    watcher held its DAG's handle - the DAG, its vertices, descriptors
    and closures - until the session ended.)"""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client(session=True)
    shared = gc_report.shared_services()
    held = []
    for i in range(6):
        handle = client.submit_dag(_two_stage(f"d{i}", []))
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded, handle.status.diagnostics
        del handle
        held.append(sum(not isinstance(o, (int, float))
                        for o in _reachable(client, object, shared)))
    assert held[1:] == [held[1]] * 5, held
    client.stop()
    sim.env.run(until=sim.env.now + 60)


def test_one_shot_dags_are_freed_once_finished():
    """Six one-shot DAGs through one client: once each has finished and
    nothing of the caller's holds it, its handle and its DAG are freed.
    (While each one-shot app's AM factory captured its handle, the RM's
    application records kept every finished DAG alive.)"""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(400)],
                   record_bytes=32)
    client = sim.tez_client()
    refs = []
    for i in range(6):
        handle = client.submit_dag(_two_stage(f"d{i}", []))
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded, handle.status.diagnostics
        refs += [weakref.ref(handle), weakref.ref(handle.dag)]
        del handle
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# ------------------------------------------------- retained host memory
POINTS = [(i, (float(i % 97), float(i % 89))) for i in range(6000)]


def _kmeans_dag(i: int, centroids: list) -> DAG:
    def assign(ctx, data, _c=tuple(centroids)):
        out = []
        for _pid, (x, y) in data["src"]:
            best = min(range(len(_c)), key=lambda j: (
                (x - _c[j][0]) ** 2 + (y - _c[j][1]) ** 2))
            out.append((best, (x, y)))
        return {"r": out}

    def recompute(ctx, data):
        return {"out": [
            (c, (sum(p[0] for p in ps) / len(ps),
                 sum(p[1] for p in ps) / len(ps)))
            for c, ps in data["m"]]}

    m = fn_vertex("m", assign, -1)
    hdfs_source(m, "src", ["/points"])
    r = fn_vertex("r", recompute, 2)
    hdfs_sink(r, "out", "/centroids")
    dag = DAG(f"kmeans{i}").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def test_iterative_session_retains_nothing_per_dag():
    """Ten k-means-style DAGs in one session: what the process holds
    after the tenth is within 1 MiB of what it held after the second.
    (While a session kept every finished DAG's spills, it grew by about
    one map output - 6 000 records - per DAG.)"""
    sim = make_sim(telemetry=False)
    sim.hdfs.write("/points", POINTS, record_bytes=24)
    client = sim.tez_client(session=True)
    client.start()
    centroids = [(10.0, 10.0), (50.0, 50.0), (90.0, 80.0)]
    held = []
    tracemalloc.start()
    try:
        for i in range(10):
            handle = client.submit_dag(_kmeans_dag(i, centroids))
            sim.env.run(until=handle.completion)
            assert handle.status.succeeded, handle.status.diagnostics
            centroids = [xy for _c, xy in
                         sorted(sim.hdfs.read_file("/centroids"))]
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[9] - held[1] < 1 << 20, [h >> 10 for h in held]
    assert spills(sim) == []
    client.stop()
