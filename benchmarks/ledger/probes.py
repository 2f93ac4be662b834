"""Single-layer probes: direct calls into one layer's public functions
with synthetic input and nothing else running.

Each probe is a fixed amount of work timed once (a fraction of a
second, in reference-host seconds like every time of the ledger),
reported as a unit cost. They are the controlled half of the
ledger: a change to one layer should move its probe, and the workload
metrics say whether that reaches the end-to-end numbers. The HDFS pair
measures one layer used two ways, so a gain for reads that costs
writes shows.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import tempfile

from calibrate import HostClock
from repro import SimCluster
from repro.engines.hive import Catalog, HiveSession
from repro.engines.pig import PigTezCompiler, PigTezConfig
from repro.shuffle import HashPartitioner, sort_records
from repro.telemetry import Telemetry
from repro.telemetry import query as telemetry_query
from repro.workloads import (
    ETL_SCRIPTS,
    TPCDS_QUERIES,
    build_script,
    generate_tpcds,
    register_tpcds,
)

__all__ = ["run_probes"]


def _idle_cluster(seed: int) -> SimCluster:
    """The shipped kernel configuration with (almost) nothing on it:
    one node, telemetry off; only the RM's own heartbeat ticks run
    beside the probe's events."""
    return SimCluster(num_nodes=1, nodes_per_rack=1, telemetry=False,
                      seed=seed)


def _timers(seed: int, n: int) -> float:
    """Schedule and fire ``n`` one-shot timers (half ``call_later``,
    half ``timeout``) spread over 10 simulated seconds."""
    env = _idle_cluster(seed).env
    rng = random.Random(seed)
    delays = [rng.uniform(0.0, 10.0) for _ in range(n)]

    def noop():
        pass

    with HostClock() as clock:
        for i, delay in enumerate(delays):
            if i & 1:
                env.call_later(delay, noop)
            else:
                env.timeout(delay)
        env.run(until=env.now + 10.0)
    return clock.seconds / n * 1e9


def _process_steps(seed: int, processes: int, steps: int) -> float:
    env = _idle_cluster(seed).env

    def ticker(delay):
        for _ in range(steps):
            yield env.timeout(delay)

    rng = random.Random(seed)
    with HostClock() as clock:
        for _ in range(processes):
            env.process(ticker(rng.uniform(0.001, 0.01)))
        env.run(until=env.now + steps * 0.011)
    return clock.seconds / (processes * steps) * 1e9


def _hdfs(seed: int, n: int) -> tuple[float, float]:
    sim = SimCluster(num_nodes=8, nodes_per_rack=4, telemetry=False,
                     hdfs_block_size=64 * 1024, seed=seed)
    rng = random.Random(seed)
    rows = [(rng.randrange(1 << 20), f"v{i}", rng.random())
            for i in range(n)]
    with HostClock() as write:
        dfile = sim.hdfs.write("/probe", rows)
    node = next(iter(sim.cluster.nodes))
    total = 0
    with HostClock() as read:
        for block in dfile.blocks:
            sim.hdfs.read_time(block, node)
            total += len(sim.hdfs.read_block(block, node))
    assert total == n
    return write.seconds / n * 1e9, read.seconds / n * 1e9


def _shuffle(seed: int, n: int) -> tuple[float, float]:
    rng = random.Random(seed)
    kvs = [(rng.randrange(n // 4), i) for i in range(n)]
    with HostClock() as sort:
        ordered = sort_records(kvs)
    assert len(ordered) == n
    partition = HashPartitioner().partition
    with HostClock() as part:
        for key, _value in kvs:
            partition(key, 128)
    return sort.seconds / n * 1e9, part.seconds / n * 1e9


def _hive_compile(seed: int, rounds: int) -> float:
    """parse -> plan -> optimize -> compile to a Tez DAG; no execution."""
    sim = _idle_cluster(seed)
    catalog = Catalog()
    register_tpcds(catalog, sim.hdfs, generate_tpcds(scale=1, seed=seed))
    session = HiveSession(sim, catalog)
    queries = [TPCDS_QUERIES[name] for name in sorted(TPCDS_QUERIES)]
    with HostClock() as clock:
        for r in range(rounds):
            for i, sql in enumerate(queries):
                session.tez_compiler.compile(session.plan(sql), f"p{r}_{i}")
    return clock.seconds / (rounds * len(queries)) * 1e3


def _pig_compile(rounds: int) -> float:
    names = sorted(ETL_SCRIPTS)
    with HostClock() as clock:
        for _ in range(rounds):
            for name in names:
                PigTezCompiler(PigTezConfig()).compile(build_script(name))
    return clock.seconds / (rounds * len(names)) * 1e3


def _telemetry(n: int) -> tuple[float, float]:
    """Span append + flush through the ring-buffered store, then the
    ``--summary`` and ``--critical-path`` queries over the persisted
    store of a small DAG-shaped span tree."""
    tel = Telemetry()
    dag = tel.span("dag", "probe", dag="probe#1", dag_name="probe")
    vertex = tel.span("vertex", "v", parent=dag, dag="probe#1")
    with HostClock() as clock:
        for i in range(n):
            span = tel.span("attempt", f"a{i}", parent=vertex, ts=float(i),
                            dag="probe#1", vertex="v", task=i)
            tel.finish(span, ts=float(i + 1), outcome="SUCCEEDED")
        tel.flush()
    per_span = clock.seconds / n * 1e9
    tel.finish(vertex, ts=float(n + 1))
    tel.finish(dag, ts=float(n + 1), outcome="SUCCEEDED")
    with tempfile.TemporaryDirectory(prefix="ledger-probe-") as tmp:
        store_dir = tel.persist_store(os.path.join(tmp, "store"))
        sink = io.StringIO()
        with HostClock() as clock, contextlib.redirect_stdout(sink):
            telemetry_query.main([store_dir, "--summary"])
            telemetry_query.main([store_dir, "--critical-path"])
        per_query = clock.seconds / 2 * 1e3
    tel.spanstore.discard()
    return per_span, per_query


def run_probes(seed: int, smoke: bool = False) -> dict:
    scale = 10 if smoke else 1
    write, read = _hdfs(seed, 100_000 // scale)
    sort, part = _shuffle(seed, 100_000 // scale)
    span, query = _telemetry(20_000 // scale)
    return {
        "sim.ns_per_timer": _timers(seed, 200_000 // scale),
        "sim.ns_per_process_step": _process_steps(
            seed, 1000 // scale, 100),
        "hdfs.ns_per_record_write": write,
        "hdfs.ns_per_record_read": read,
        "shuffle.ns_per_record_sort": sort,
        "shuffle.ns_per_record_partition": part,
        "engines.hive.ms_per_compile": _hive_compile(
            seed, 2 if smoke else 8),
        "engines.pig.ms_per_compile": _pig_compile(3 if smoke else 12),
        "telemetry.ns_per_span": span,
        "telemetry.ms_per_query": query,
    }
