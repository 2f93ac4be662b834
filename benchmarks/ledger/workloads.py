"""The six ledger workloads.

Every workload is a class with the same three-step life:

* ``__init__(seed, size)`` — *set-up*: generate the inputs from the
  seed, build the ``SimCluster``, load HDFS, start and pre-warm
  sessions. Timed by the caller as ``setup_s``.
* ``run()`` — the *timed region*: first submit to last completion,
  nothing else.
* ``check()`` — verification, outside the timed region: compares what
  the program committed against a reference computed here, from the
  generated input, in plain Python. Returns an :class:`Outcome`.

The program only ever sees generated inputs; the seed never reaches
it except as ``ClusterSpec.seed`` / ``run_cluster_day(seed=...)``.
Workloads run on the shipped defaults: no legacy/optimized switch is
passed anywhere in this directory, so the file keeps working when
those switches are deleted. DAG shapes are rebuilt here on purpose —
this module imports only the public ``repro`` API.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass, field

from repro import SimCluster
from repro.engines.hive import Catalog, HiveSession
from repro.engines.pig import PigRunner
from repro.tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    TezConfig,
    Vertex,
)
from repro.tez.library import (
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OneToOneInput,
    OneToOneOutput,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
)
from repro.workloads import (
    ETL_SCRIPTS,
    TPCDS_QUERIES,
    TPCH_QUERIES,
    build_script,
    generate_tpcds,
    generate_tpch,
    load_etl_data,
    register_tpcds,
    register_tpch,
)
from repro.yarn import (
    FinalApplicationStatus,
    Priority,
    QueueConfig,
    Resource,
)

__all__ = ["WORKLOADS", "Outcome"]


@dataclass
class Outcome:
    """What one batch did, as verified by ``check()``."""

    attempted: int            # operations: DAGs, query x backend, asks
    failed: int
    tasks: int                # numerator of tasks_per_s
    sim_makespan_s: float     # sum of DAG/app simulated elapsed times
    digest: str               # sha256(makespans + committed rows)
    problems: list = field(default_factory=list)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _edge(kind, out_cls, in_cls):
    def make(src: Vertex, dst: Vertex) -> Edge:
        return Edge(src, dst, EdgeProperty(
            kind,
            output_descriptor=Descriptor(out_cls),
            input_descriptor=Descriptor(in_cls),
        ))
    return make


_one_to_one = _edge(DataMovementType.ONE_TO_ONE,
                    OneToOneOutput, OneToOneInput)
_scatter_gather = _edge(DataMovementType.SCATTER_GATHER,
                        OrderedPartitionedKVOutput, OrderedGroupedKVInput)


def _hdfs_source(vertex: Vertex, path: str, **payload) -> None:
    vertex.add_data_source("src", DataSourceDescriptor(
        Descriptor(HdfsInput),
        Descriptor(HdfsInputInitializer, {"paths": [path], **payload}),
    ))


def _hdfs_sink(vertex: Vertex, path: str) -> None:
    vertex.add_data_sink("out", DataSinkDescriptor(
        Descriptor(HdfsOutput, {"path": path}),
        Descriptor(HdfsOutputCommitter, {"path": path}),
    ))


def _committed_once(hdfs, path: str) -> bool:
    """Final file written exactly once and staging fully promoted."""
    return (hdfs.exists(path) and hdfs.version(path) == 1
            and not hdfs.list_files(f"{path}/_staging/"))


def _rows_equal(a, b) -> bool:
    """Row-set equality tolerant of distributed float-summation order
    (EXPERIMENTS.md divergence 5)."""
    def canon(rows):
        return sorted(
            (tuple(round(v, 4) if isinstance(v, float) else v for v in r)
             for r in rows), key=repr)
    return canon(a) == canon(b)


# ------------------------------------------------------------ task_churn
class TaskChurn:
    """One 4-vertex one-to-one diamond of pass-through tasks."""

    name = "task_churn"
    why = ("one large DAG of pass-through tasks: per-task control-plane "
           "cost (tez.am first, then tez.runtime, sim, telemetry); data "
           "plane near zero")
    sizes = {"full": {"parallelism": 2500}, "smoke": {"parallelism": 100}}

    def __init__(self, seed: int, size: dict):
        p = self.parallelism = size["parallelism"]
        rng = random.Random(seed)
        self.values = [rng.randrange(1 << 30) for _ in range(p)]
        self.sims = [SimCluster(num_nodes=20, nodes_per_rack=10,
                                memory_per_node_mb=16 * 1024,
                                cores_per_node=8, seed=seed)]
        self.received: dict[int, list] = {}
        self.deliveries = 0
        values = self.values

        def passthrough(targets):
            def fn(c, d):
                records = [kv for recs in d.values() for kv in recs] \
                    or [(c.task_index, values[c.task_index])]
                return {t: list(records) for t in targets}
            return fn

        def collect(c, d):
            self.deliveries += 1
            self.received[c.task_index] = sorted(
                kv for recs in d.values() for kv in recs)
            return {}

        def vertex(name, fn):
            return Vertex(name, Descriptor(FnProcessor, {"fn": fn}),
                          parallelism=p)

        v1 = vertex("v1", passthrough(["v2", "v3"]))
        v2 = vertex("v2", passthrough(["v4"]))
        v3 = vertex("v3", passthrough(["v4"]))
        v4 = vertex("v4", collect)
        dag = DAG("diamond")
        for v in (v1, v2, v3, v4):
            dag.add_vertex(v)
        for src, dst in ((v1, v2), (v1, v3), (v2, v4), (v3, v4)):
            dag.add_edge(_one_to_one(src, dst))
        self.dag = dag
        self.clients = [self.sims[0].tez_client()]

    def run(self) -> None:
        self.handle = self.clients[0].submit_dag(self.dag)
        self.sims[0].env.run(until=self.handle.completion)

    def check(self) -> Outcome:
        status = self.handle.status
        problems = []
        if not status.succeeded:
            problems.append(f"diamond: {status.state} {status.diagnostics}")
        want = {i: [(i, v), (i, v)] for i, v in enumerate(self.values)}
        if self.received != want:
            problems.append("diamond: v4 did not receive each v1 record "
                            "once via v2 and once via v3")
        if self.deliveries != self.parallelism:
            problems.append(f"diamond: v4 ran {self.deliveries} times for "
                            f"{self.parallelism} tasks")
        return Outcome(
            attempted=1, failed=1 if problems else 0,
            tasks=status.metrics.get("tasks_succeeded", 0),
            sim_makespan_s=status.elapsed,
            digest=_digest(status.elapsed, sorted(self.received.items())),
            problems=problems,
        )


# ----------------------------------------------------------- sched_storm
class SchedStorm:
    """Raw YARN AMs issuing waves of node-tagged asks; no Tez."""

    name = "sched_storm"
    why = ("allocation asks driven straight through the RM on a 500-node "
           "three-queue cluster: yarn first, sim second, every tez layer "
           "exactly zero - the bypass workload for any AM change")
    sizes = {
        "full": {"nodes": 500, "per_rack": 25, "apps": 12, "waves": 6,
                 "asks": 300},
        "smoke": {"nodes": 60, "per_rack": 10, "apps": 6, "waves": 2,
                  "asks": 40},
    }

    def __init__(self, seed: int, size: dict):
        self.size = size
        nodes, apps = size["nodes"], size["apps"]
        waves, asks = size["waves"], size["asks"]
        rng = random.Random(seed)
        # The generated input: one preferred node per ask.
        prefs = [[[rng.randrange(nodes) for _ in range(asks)]
                  for _ in range(waves)] for _ in range(apps)]
        sim = SimCluster(
            num_nodes=nodes, nodes_per_rack=size["per_rack"],
            cores_per_node=16, memory_per_node_mb=16 * 1024,
            heartbeat_interval=1.0, seed=seed,
            queues=[QueueConfig("prod", 0.5, 0.9),
                    QueueConfig("batch", 0.3, 0.7),
                    QueueConfig("adhoc", 0.2, 0.6)],
        )
        self.sims = [sim]
        self.clients = []
        self.completed = 0
        env = sim.env
        capability = Resource(4096, 4)

        def make_am(app_idx: int):
            def am(ctx):
                ctx.register()
                for wave in range(waves):
                    for i, node in enumerate(prefs[app_idx][wave]):
                        ctx.request_containers(
                            Priority(2 + (i % 3)), capability,
                            nodes=[f"node{node:04d}"],
                        )

                    def launcher():
                        for done in range(asks):
                            c = yield ctx.allocated.get()
                            dur = 0.25 + ((app_idx + done) % 7) * 0.125

                            def task(container, dur=dur):
                                yield env.timeout(
                                    container.compute_delay(dur))

                            ctx.launch_container(c, task)

                    env.process(launcher())
                    for _ in range(asks):
                        yield ctx.completed.get()
                        self.completed += 1
                ctx.unregister(FinalApplicationStatus.SUCCEEDED)
            return am

        self.ams = [make_am(i) for i in range(apps)]

    def run(self) -> None:
        sim = self.sims[0]
        queues = ("prod", "batch", "adhoc")
        self.handles = [
            sim.rm.submit_application(f"load{i}", am, queue=queues[i % 3])
            for i, am in enumerate(self.ams)
        ]
        for handle in self.handles:
            sim.env.run(until=handle.completion)

    def check(self) -> Outcome:
        size = self.size
        asked = size["apps"] * size["waves"] * size["asks"]
        problems = [
            f"{h.name}: {h.final_status} {h.diagnostics}"
            for h in self.handles
            if h.final_status != FinalApplicationStatus.SUCCEEDED
        ]
        # App ids draw from a process-global counter: name them by
        # submission order so the digest repeats across batches.
        names = {str(h.app_id): f"app{i}"
                 for i, h in enumerate(self.handles)}
        log = [(t, names.get(app, app), node, level) for t, app, node, level
               in self.sims[0].rm.scheduler.allocation_log]
        # One AM container per app rides in the same log.
        granted = len(log) - len(self.handles)
        if granted < asked or self.completed < asked:
            problems.append(f"{granted} granted / {self.completed} "
                            f"completed of {asked} asks")
        elapsed = [h.elapsed for h in self.handles]
        return Outcome(
            attempted=asked, failed=asked if problems else 0,
            tasks=self.completed,
            sim_makespan_s=sum(e for e in elapsed if e is not None),
            digest=_digest(elapsed, log), problems=problems,
        )


# ---------------------------------------------------------- iter_session
class IterSession:
    """Structurally-identical k-means DAGs through one session AM."""

    name = "iter_session"
    why = ("repeated identical DAGs through one pre-warmed session: the "
           "only workload where execution templates replay, and where "
           "the sim kernel is the floor")
    sizes = {
        "full": {"iterations": 10, "maps": 32, "reducers": 512,
                 "clusters": 8},
        "smoke": {"iterations": 3, "maps": 16, "reducers": 128,
                  "clusters": 8},
    }

    def __init__(self, seed: int, size: dict):
        self.size = size
        rng = random.Random(seed)
        self.points = [round(rng.uniform(0.0, 256.0), 3)
                       for _ in range(size["maps"])]
        sim = SimCluster(num_nodes=4, nodes_per_rack=2,
                         memory_per_node_mb=16 * 1024, cores_per_node=8,
                         hdfs_block_size=4096, seed=seed)
        self.sims = [sim]
        # One point per block, so one map task per point; the reduce
        # stage is deliberately over-partitioned (a wide sorted edge
        # with almost no data): each iteration's host cost is control
        # plane and kernel, not rows.
        sim.hdfs.write("/points", list(enumerate(self.points)),
                       record_bytes=4096)
        # Containers must outlive the gaps between iterations, or slot
        # churn (correctly) demotes template replay.
        client = sim.tez_client(session=True, config=TezConfig(
            container_idle_timeout=1e9, session_idle_timeout=1e9))
        self.clients = [client]
        client.start()
        client.prewarm(31)
        sim.env.run(until=sim.env.now + 30.0)
        step = 256.0 / size["clusters"]
        self.start = [step * j + step / 2 for j in range(size["clusters"])]

    def _dag(self, centroids) -> DAG:
        cents = tuple(centroids)

        def assign(c, d):
            return {"r": [
                (min(range(len(cents)), key=lambda j: abs(v - cents[j])), v)
                for _k, v in d["src"]
            ]}

        def average(c, d):
            return {"out": [(k, round(sum(vs) / len(vs), 6))
                            for k, vs in d["m"]]}

        m = Vertex("m", Descriptor(FnProcessor, {
            "fn": assign, "cpu_per_record": 2e-4}), parallelism=-1)
        _hdfs_source(m, "/points")
        r = Vertex("r", Descriptor(FnProcessor, {"fn": average}),
                   parallelism=self.size["reducers"])
        _hdfs_sink(r, "/centroids")
        dag = DAG("kmeans-iter").add_vertex(m).add_vertex(r)
        dag.add_edge(_scatter_gather(m, r))
        return dag

    def run(self) -> None:
        sim, client = self.sims[0], self.clients[0]
        centroids = list(self.start)
        self.statuses, self.outputs = [], []
        for _ in range(self.size["iterations"]):
            handle = client.submit_dag(self._dag(centroids))
            sim.env.run(until=handle.completion)
            self.statuses.append(handle.status)
            rows = sorted(sim.hdfs.read_file("/centroids"))
            self.outputs.append(rows)
            for k, v in rows:
                centroids[k] = v

    def _reference_step(self, centroids) -> list:
        members: dict[int, list] = {}
        for v in self.points:
            best = min(range(len(centroids)),
                       key=lambda j: abs(v - centroids[j]))
            members.setdefault(best, []).append(v)
        return sorted((k, round(sum(vs) / len(vs), 6))
                      for k, vs in members.items())

    def check(self) -> Outcome:
        problems = []
        centroids = list(self.start)
        for i, (status, rows) in enumerate(zip(self.statuses,
                                               self.outputs)):
            if not status.succeeded:
                problems.append(f"iteration {i}: {status.diagnostics}")
                continue
            if rows != self._reference_step(centroids):
                problems.append(f"iteration {i}: centroids differ from "
                                f"the reference k-means step")
            for k, v in rows:
                centroids[k] = v
        hdfs = self.sims[0].hdfs
        if hdfs.version("/centroids") != len(self.statuses) \
                or hdfs.list_files("/centroids/_staging/"):
            problems.append("/centroids not committed once per iteration")
        self.clients[0].stop()
        makespans = [s.elapsed for s in self.statuses]
        return Outcome(
            attempted=len(self.statuses),
            failed=min(len(problems), len(self.statuses)),
            tasks=sum(s.metrics.get("tasks_succeeded", 0)
                      for s in self.statuses),
            sim_makespan_s=sum(makespans),
            digest=_digest(makespans, self.outputs), problems=problems,
        )


# ---------------------------------------------------------- shuffle_rows
class ShuffleRows:
    """Real rows HDFS -> map -> sorted shuffle -> reduce -> HDFS."""

    name = "shuffle_rows"
    why = ("seeded rows through the whole data plane to a committed "
           "sink: shuffle sort/partition and hdfs sizing dominate, "
           "control plane a few percent; the peak_rss_mb workload")
    sizes = {
        "full": {"rows": 2_000_000, "keys": 100_000, "tasks": 128},
        "smoke": {"rows": 20_000, "keys": 2_000, "tasks": 16},
    }

    def __init__(self, seed: int, size: dict):
        rows, keys, tasks = size["rows"], size["keys"], size["tasks"]
        rng = random.Random(seed)
        self.rows = [(rng.randrange(keys), rng.randrange(1000))
                     for _ in range(rows)]
        record_bytes = 64
        sim = SimCluster(num_nodes=20, nodes_per_rack=10,
                         memory_per_node_mb=16 * 1024, cores_per_node=8,
                         hdfs_block_size=record_bytes * rows // tasks,
                         seed=seed)
        self.sims = [sim]
        sim.hdfs.write("/rows", self.rows, record_bytes=record_bytes)
        m = Vertex("m", Descriptor(FnProcessor, {
            "fn": lambda c, d: {"r": list(d["src"])}}), parallelism=-1)
        _hdfs_source(m, "/rows", max_splits=tasks)
        r = Vertex("r", Descriptor(FnProcessor, {
            "fn": lambda c, d: {"out": [(k, sum(vs)) for k, vs in d["m"]]},
        }), parallelism=tasks)
        _hdfs_sink(r, "/sums")
        self.dag = DAG("shuffle-rows").add_vertex(m).add_vertex(r)
        self.dag.add_edge(_scatter_gather(m, r))
        self.clients = [sim.tez_client()]

    def run(self) -> None:
        self.handle = self.clients[0].submit_dag(self.dag)
        self.sims[0].env.run(until=self.handle.completion)

    def check(self) -> Outcome:
        status, hdfs = self.handle.status, self.sims[0].hdfs
        problems = []
        want: dict[int, int] = {}
        for k, v in self.rows:
            want[k] = want.get(k, 0) + v
        got = []
        if not status.succeeded:
            problems.append(f"shuffle-rows: {status.diagnostics}")
        elif not _committed_once(hdfs, "/sums"):
            problems.append("/sums not committed exactly once")
        else:
            got = sorted(hdfs.read_file("/sums"))
            if got != sorted(want.items()):
                problems.append("/sums differs from the per-key sums of "
                                "the generated rows")
        return Outcome(
            attempted=1, failed=1 if problems else 0,
            tasks=status.metrics.get("tasks_succeeded", 0),
            sim_makespan_s=status.elapsed,
            digest=_digest(status.elapsed, got), problems=problems,
        )


# ------------------------------------------------------------ engine_mix
def _occupy(sim: SimCluster, fraction: float) -> None:
    """A filler app holding ~fraction of the cluster (busy cluster)."""
    total_mb = sum(n.memory_mb for n in sim.cluster.nodes.values())
    count = int(total_mb * fraction / 1024)

    def filler(ctx):
        ctx.register()
        ctx.request_containers(Priority(9), Resource(1024, 1), count=count)
        for _ in range(count):
            c = yield ctx.allocated.get()

            def hold(container):
                yield sim.env.timeout(10_000_000)

            ctx.launch_container(c, hold)
        yield sim.env.timeout(10_000_000)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    sim.rm.submit_application("filler", filler)
    sim.env.run(until=sim.env.now + 60)


class EngineMix:
    """Hive (TPC-DS + TPC-H derived) and Pig ETL, Tez and MR backends."""

    name = "engine_mix"
    why = ("what a figure reproduction costs: the only workload through "
           "the SQL/Pig compilers, operator fragments and the "
           "MR-on-YARN runner; engines, shuffle and hdfs share the time")
    sizes = {
        "full": {"tpcds": 8, "tpch": 8, "etl": 16},
        "smoke": {"tpcds": 1, "tpch": 1, "etl": 1},
    }

    def __init__(self, seed: int, size: dict):
        # TPC-DS and TPC-H both define `customer`, so each schema gets
        # its own cluster + catalog + HiveSession (as figs 8 and 9 do).
        ds = SimCluster(num_nodes=20, nodes_per_rack=10, seed=seed)
        ds_catalog = Catalog()
        register_tpcds(ds_catalog, ds.hdfs,
                       generate_tpcds(scale=size["tpcds"], seed=seed),
                       row_bytes_factor=50)
        h = SimCluster(num_nodes=40, nodes_per_rack=20,
                       memory_per_node_mb=24 * 1024, seed=seed)
        h_catalog = Catalog()
        register_tpch(h_catalog, h.hdfs,
                      generate_tpch(scale=size["tpch"], seed=seed + 1),
                      row_bytes_factor=40)
        self.hive = [
            (HiveSession(ds, ds_catalog), TPCDS_QUERIES, 16),
            (HiveSession(h, h_catalog), TPCH_QUERIES, 24),
        ]
        for session, _queries, warm in self.hive:
            session.prewarm(warm)
        pig_sim = SimCluster(num_nodes=12, nodes_per_rack=6,
                             memory_per_node_mb=24 * 1024,
                             cpu_cost_per_record=2.5e-4,
                             hdfs_block_size=1024 * 1024, seed=seed)
        _occupy(pig_sim, fraction=0.6)
        load_etl_data(pig_sim.hdfs, scale=size["etl"], seed=seed + 2)
        self.pig = PigRunner(pig_sim)
        self.sims = [ds, h, pig_sim]
        self.clients = []

    def run(self) -> None:
        self.hive_results, self.pig_results = [], []
        for session, queries, _warm in self.hive:
            for name in sorted(queries):
                for backend in ("tez", "mr"):
                    self.hive_results.append((
                        session, name, queries[name],
                        session.run(queries[name], backend=backend)))
        for name in sorted(ETL_SCRIPTS):
            for backend in ("tez", "mr"):
                self.pig_results.append((
                    name, self.pig.run(build_script(name),
                                       backend=backend)))

    def check(self) -> Outcome:
        problems, makespans, committed, tasks = [], [], [], 0
        by_query: dict = {}
        for session, name, sql, result in self.hive_results:
            if name not in by_query:
                want = session.run(sql, backend="reference").rows
            if not _rows_equal(result.rows, want):
                problems.append(f"hive {name} on {result.backend}: rows "
                                f"differ from hive.reference")
            other = by_query.setdefault(name, result)
            if not _rows_equal(result.rows, other.rows):
                problems.append(f"hive {name}: tez rows != mr rows")
            makespans.append(result.elapsed)
            committed.append(sorted(result.rows, key=repr))
            tasks += result.metrics.get("tasks_succeeded", 0)
        by_script: dict = {}
        for name, result in self.pig_results:
            if name not in by_script:
                want = self.pig.run(build_script(name),
                                    backend="reference").outputs
            other = by_script.setdefault(name, result)
            for path, rows in result.outputs.items():
                if not _rows_equal(rows, want[path]):
                    problems.append(f"pig {name} on {result.backend}: "
                                    f"{path} differs from pig.reference")
                if not _rows_equal(rows, other.outputs[path]):
                    problems.append(f"pig {name}: tez rows != mr rows")
                committed.append(sorted(rows, key=repr))
            makespans.append(result.elapsed)
            tasks += result.metrics.get("tasks_succeeded", 0)
        for session, _queries, _warm in self.hive:
            session.close()
        self.pig.close()
        self.clients = [s.tez_client for s, _q, _w in self.hive] \
            + [self.pig.tez_client]
        self.dags_compiled = sum(
            r.jobs for _s, _n, _q, r in self.hive_results
            if r.backend == "tez") + sum(
            r.jobs for _n, r in self.pig_results if r.backend == "tez")
        attempted = len(self.hive_results) + len(self.pig_results)
        return Outcome(
            attempted=attempted, failed=min(len(problems), attempted),
            tasks=tasks, sim_makespan_s=sum(makespans),
            digest=_digest(makespans, committed), problems=problems,
        )


    def extra_counts(self) -> dict:
        return {"engines.dags_compiled": self.dags_compiled}


# ----------------------------------------------------------- cluster_day
@contextlib.contextmanager
def _capture_clusters(module):
    """``run_cluster_day`` builds its SimCluster and clients internally
    and returns only a summary; record them so the per-layer counts
    can be read from their public attributes afterwards."""
    made = []

    class Recording(module.SimCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.clients = []
            made.append(self)

        def tez_client(self, *args, **kwargs):
            client = super().tez_client(*args, **kwargs)
            self.clients.append(client)
            return client

    original, module.SimCluster = module.SimCluster, Recording
    try:
        yield made
    finally:
        module.SimCluster = original


class ClusterDay:
    """Multi-tenant DAG stream, sharded AMs, chaos and recovery."""

    name = "cluster_day"
    why = ("the tez.am layer used the other way - many small DAGs, "
           "sharded session AMs, journal, chaos and recovery - so a "
           "per-task gain bought with per-DAG fixed cost shows here")
    sizes = {
        "full": {"sessions": 12, "dags": 144, "tasks_per_dag": 150},
        "smoke": {"sessions": 4, "dags": 12, "tasks_per_dag": 30},
    }

    def __init__(self, seed: int, size: dict):
        # Deferred: pulls in the soak driver only for this workload.
        from repro.bench import cluster_day
        self._module = cluster_day
        self.seed, self.size = seed, size
        self.sims, self.clients = [], []

    def run(self) -> None:
        # The soak's own set-up and verdict (cluster construction,
        # digest) run inside this call: 0.2 % of it at the full size.
        with _capture_clusters(self._module) as made:
            self.summary = self._module.run_cluster_day(
                **self.size, shards=2, seed=self.seed, verbose=False)
        self.sims = made
        self.clients = [c for sim in made for c in sim.clients]

    def check(self) -> Outcome:
        s = self.summary
        problems = []
        # The soak's own verdict also fails when its self-aimed crash
        # never arms or lands on an empty journal. That happens on about
        # one seed in ten — the background node crash takes out the
        # target shard's AM first — and is a property of the generated
        # fault plan, not a failed operation: every DAG still has to
        # succeed and nothing journaled may re-execute.
        aimed = s["crash_time"] >= 0 and s["journaled_at_crash"] > 0
        violations = s["violations"] - (0 if aimed else 1)
        if violations:
            problems.append(f"cluster day: {violations} violation(s)")
        if s["reexecutions"]:
            problems.append(f"cluster day: {s['reexecutions']} journaled "
                            f"tasks re-executed after recovery")
        return Outcome(
            attempted=s["dags"], failed=s["dags"] if problems else 0,
            tasks=s["tasks"], sim_makespan_s=s["sim_makespan"],
            digest=_digest(s["sim_makespan"], s["digest"]),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (TaskChurn, SchedStorm, IterSession,
                                 ShuffleRows, EngineMix, ClusterDay)}
