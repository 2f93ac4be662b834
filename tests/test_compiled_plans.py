"""Compiled-plan golden: what every front-end hands the runtime.

``tests/golden/compiled_plans.json`` holds a canonical description of
every plan the figure benchmarks and the ``engine_mix`` ledger workload
compile - Hive TPC-DS / TPC-H on Tez and MapReduce, the Pig ETL scripts
and one k-means iteration on Tez and MapReduce (the MR steps that need
no earlier job's output), the Spark job DAG of figure 12 and the
stitched DAG of the stitching ablation:

    python tests/test_compiled_plans.py            # print as JSON
    python tests/test_compiled_plans.py --record   # rewrite golden

A Tez DAG is described by its vertices (processor, parallelism,
manager, sources, sinks) and its edges (movement and descriptors), an
MR job by its fields. Descriptor payloads keep their scalar values;
a callable is recorded only as present.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import pytest

from repro import SimCluster
from repro.engines.hive import Catalog, HiveSession
from repro.engines.mapreduce import MRJob, stitch_pipeline
from repro.engines.pig import PigMRCompiler, PigTezCompiler
from repro.engines.spark import SparkContext
from repro.engines.spark import rdd as spark_rdd
from repro.tez import DAG, Descriptor
from repro.workloads import (
    ETL_SCRIPTS,
    TPCDS_QUERIES,
    TPCH_QUERIES,
    build_script,
    generate_points,
    generate_tpcds,
    generate_tpch,
    initial_centroids,
    kmeans_iteration_script,
    register_tpcds,
    register_tpch,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "compiled_plans.json"
CALLABLE = "<callable>"


# ---------------------------------------------------------- descriptions
def _value(value):
    """A JSON-able, process-independent description of a payload."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _value(v) for k, v in value.items()}
    if isinstance(value, type):
        return value.__qualname__
    if isinstance(value, (types.FunctionType, types.MethodType,
                          types.BuiltinFunctionType, types.LambdaType)):
        return CALLABLE
    if dataclasses.is_dataclass(value):
        return {"class": type(value).__qualname__,
                **{f.name: _value(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    return {"class": type(value).__qualname__}


def _descriptor(desc):
    if desc is None:
        return None
    assert isinstance(desc, Descriptor), desc
    return {"class": desc.cls.__qualname__, "payload": _value(desc.payload)}


def describe_dag(dag: DAG) -> dict:
    vertices = []
    for v in dag.vertices.values():
        vertices.append({
            "name": v.name,
            "processor": _descriptor(v.processor),
            "parallelism": v.parallelism,
            "manager": _descriptor(v.vertex_manager),
            "sources": {name: {
                "input": _descriptor(s.input_descriptor),
                "initializer": _descriptor(s.initializer_descriptor),
            } for name, s in v.data_sources.items()},
            "sinks": {name: {
                "output": _descriptor(s.output_descriptor),
                "committer": _descriptor(s.committer_descriptor),
            } for name, s in v.data_sinks.items()},
        })
    edges = [{
        "source": e.source.name,
        "target": e.target.name,
        "movement": e.prop.data_movement.value,
        "output": _descriptor(e.prop.output_descriptor),
        "input": _descriptor(e.prop.input_descriptor),
        "data_source": e.prop.data_source.value,
        "scheduling": e.prop.scheduling.value,
        "edge_manager": _descriptor(e.prop.edge_manager_descriptor),
    } for e in dag.edges]
    return {"name": dag.name, "vertices": vertices, "edges": edges}


def describe_job(job: MRJob) -> dict:
    out = {f.name: _value(getattr(job, f.name))
           for f in dataclasses.fields(job) if f.name != "path_mappers"}
    out["mapper_batch"] = bool(getattr(job.mapper, "batch", False))
    mappers = getattr(job, "path_mappers", None)
    out["path_mappers"] = None if mappers is None else [
        [path, bool(getattr(m, "batch", False))]
        for path, m in mappers.items()]
    return out


class _Deferred(Exception):
    pass


class _NoHdfs:
    """Handed to Pig MR job steps: a step that reads HDFS is one that
    needs an earlier job's output, and is recorded as deferred."""

    def __getattr__(self, name):
        raise _Deferred(name)


def describe_steps(steps) -> list:
    out = []
    for step in steps:
        try:
            out.append(describe_job(step(_NoHdfs())))
        except _Deferred:
            out.append({"deferred": True})
    return out


# ------------------------------------------------------------- the plans
def hive_plans() -> dict:
    plans = {}
    schemas = (
        ("tpcds", TPCDS_QUERIES, lambda c, h: register_tpcds(
            c, h, generate_tpcds(scale=1), row_bytes_factor=50)),
        ("tpch", TPCH_QUERIES, lambda c, h: register_tpch(
            c, h, generate_tpch(scale=1), row_bytes_factor=40)),
    )
    for label, queries, register in schemas:
        sim = SimCluster(num_nodes=4, nodes_per_rack=2)
        catalog = Catalog()
        register(catalog, sim.hdfs)
        session = HiveSession(sim, catalog)
        seq = itertools.count(1)
        # Named as a session names them, a query run on Tez then on MR
        # (figures 8 / 9, engine_mix).
        for name in sorted(queries):
            plan = session.plan(queries[name])
            dag, columns, path = session.tez_compiler.compile(
                plan, f"q{next(seq)}")
            plans[f"hive/{label}/{name}/tez"] = {
                "dag": describe_dag(dag), "columns": columns,
                "output_path": path}
            compiled = session.mr_compiler.compile(plan, f"q{next(seq)}")
            plans[f"hive/{label}/{name}/mr"] = {
                "jobs": [describe_job(j) for j in compiled.jobs],
                "columns": compiled.columns,
                "output_path": compiled.output_path}
    return plans


def _pig_scripts():
    for name in sorted(ETL_SCRIPTS):
        yield f"etl/{name}", lambda _n=name: build_script(_n)
    points = generate_points(10_000, k=4)
    centroids = initial_centroids(points, 4)
    yield "kmeans", lambda: kmeans_iteration_script(
        centroids, "/km/points", "/km/out0")


def pig_plans() -> dict:
    plans = {}
    for label, make in _pig_scripts():
        dag, outputs = PigTezCompiler().compile(make())
        plans[f"pig/{label}/tez"] = {"dag": describe_dag(dag),
                                     "outputs": outputs}
        plans[f"pig/{label}/mr"] = {
            "steps": describe_steps(PigMRCompiler().compile(make()))}
    return plans


class _CapturingClient:
    def __init__(self):
        self.dags = []

    def run_dag(self, dag):
        self.dags.append(dag)
        return types.SimpleNamespace(succeeded=True, diagnostics="")
        yield  # a process, as TezClient.run_dag is


def spark_plans() -> dict:
    seq, spark_rdd.Stage._seq = spark_rdd.Stage._seq, itertools.count(1)
    try:
        sim = SimCluster(num_nodes=2, nodes_per_rack=2)
        # The backend reads the committed output back after the run.
        sim.hdfs.write("/out/tez/u0/r0", [])
        sc = SparkContext(sim, backend="tez", num_executors=6,
                          executor_mb=4096, queue="u0", app_name="user0")
        client = sc.backend._client = _CapturingClient()
        # Figure 12's job: key lineitem by ship year, partition by it.
        rdd = (sc.hdfs_file("/tpch/lineitem")
               .map(lambda row: (row[9], row))
               .partition_by(32))
        with pytest.raises(StopIteration):
            next(sc.run_job(rdd, ("save", "/out/tez/u0/r0")))
    finally:
        spark_rdd.Stage._seq = seq
    [dag] = client.dags
    return {"spark/fig12/tez": {"dag": describe_dag(dag)}}


def stitched_plans() -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_ablation_stitching import make_jobs
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return {"stitched/ablation": {
        "dag": describe_dag(stitch_pipeline(make_jobs(), "wf"))}}


def observe() -> dict:
    return {**hive_plans(), **pig_plans(), **spark_plans(),
            **stitched_plans()}


# ----------------------------------------------------------------- tests
@pytest.fixture(scope="module")
def observed():
    return json.loads(json.dumps(observe()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["plans"]


def test_every_plan_has_a_golden(observed, golden):
    assert sorted(observed) == sorted(golden)


@pytest.mark.parametrize("family", ["hive/tpcds", "hive/tpch", "pig/etl",
                                    "pig/kmeans", "spark", "stitched"])
def test_compiled_plans_match_golden(observed, golden, family):
    names = [n for n in golden if n.startswith(family)]
    assert names
    for name in names:
        assert observed[name] == golden[name], name


@pytest.mark.parametrize("hashseed", ["0", "1", "2"])
def test_golden_does_not_depend_on_the_hash_seed(hashseed):
    proc = subprocess.run(
        [sys.executable, __file__], text=True, check=True,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED=hashseed))
    assert json.loads(proc.stdout) == \
        json.loads(GOLDEN_PATH.read_text())["plans"]


def _main(argv) -> int:
    observed = json.loads(json.dumps(observe()))
    if argv == ["--record"]:
        GOLDEN_PATH.write_text(json.dumps({"plans": observed}, indent=1)
                               + "\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(observed, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
