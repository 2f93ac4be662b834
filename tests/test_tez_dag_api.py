"""Unit tests for the Tez DAG API (structure and validation)."""

import pytest

from repro.tez import (
    DAG,
    DagValidationError,
    DataMovementType,
    Descriptor,
    Edge,
    EdgeProperty,
    Vertex,
)
from repro.tez.library import (
    FnProcessor,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
)


def sg_prop():
    return EdgeProperty(
        DataMovementType.SCATTER_GATHER,
        output_descriptor=Descriptor(OrderedPartitionedKVOutput),
        input_descriptor=Descriptor(OrderedGroupedKVInput),
    )


def v(name, parallelism=1):
    return Vertex(name, Descriptor(FnProcessor, {"fn": lambda c, d: {}}),
                  parallelism=parallelism)


def test_simple_dag_builds_and_verifies():
    a, b = v("a", 2), v("b", 3)
    dag = DAG("d").add_vertex(a).add_vertex(b)
    dag.add_edge(Edge(a, b, sg_prop()))
    dag.verify()
    assert [x.name for x in dag.topological_order()] == ["a", "b"]


def test_duplicate_vertex_rejected():
    dag = DAG("d").add_vertex(v("a"))
    with pytest.raises(DagValidationError):
        dag.add_vertex(v("a"))


def test_edge_to_unknown_vertex_rejected():
    a, b = v("a"), v("b")
    dag = DAG("d").add_vertex(a)
    with pytest.raises(DagValidationError):
        dag.add_edge(Edge(a, b, sg_prop()))


def test_self_edge_rejected():
    a = v("a")
    dag = DAG("d").add_vertex(a)
    with pytest.raises(DagValidationError):
        dag.add_edge(Edge(a, a, sg_prop()))


def test_duplicate_edge_rejected():
    a, b = v("a"), v("b")
    dag = DAG("d").add_vertex(a).add_vertex(b)
    dag.add_edge(Edge(a, b, sg_prop()))
    with pytest.raises(DagValidationError):
        dag.add_edge(Edge(a, b, sg_prop()))


def test_cycle_detected():
    a, b, c = v("a"), v("b"), v("c")
    dag = DAG("d").add_vertex(a).add_vertex(b).add_vertex(c)
    dag.add_edge(Edge(a, b, sg_prop()))
    dag.add_edge(Edge(b, c, sg_prop()))
    dag.add_edge(Edge(c, a, sg_prop()))
    with pytest.raises(DagValidationError, match="cycle"):
        dag.verify()


def test_empty_dag_rejected():
    with pytest.raises(DagValidationError):
        DAG("d").verify()


def test_bad_names_rejected():
    with pytest.raises(DagValidationError):
        DAG("")
    with pytest.raises(DagValidationError):
        Vertex("", Descriptor(FnProcessor))


def test_bad_parallelism_rejected():
    with pytest.raises(DagValidationError):
        v("a", parallelism=0)
    with pytest.raises(DagValidationError):
        v("a", parallelism=-2)


def test_runtime_parallelism_without_source_rejected():
    dag = DAG("d").add_vertex(v("a", parallelism=-1))
    with pytest.raises(DagValidationError, match="runtime parallelism"):
        dag.verify()


def test_one_to_one_parallelism_mismatch_rejected():
    a, b = v("a", 2), v("b", 3)
    prop = EdgeProperty(
        DataMovementType.ONE_TO_ONE,
        output_descriptor=Descriptor(OrderedPartitionedKVOutput),
        input_descriptor=Descriptor(OrderedGroupedKVInput),
    )
    dag = DAG("d").add_vertex(a).add_vertex(b)
    dag.add_edge(Edge(a, b, prop))
    with pytest.raises(DagValidationError, match="one-to-one"):
        dag.verify()


def test_custom_edge_requires_manager():
    with pytest.raises(DagValidationError):
        EdgeProperty(
            DataMovementType.CUSTOM,
            output_descriptor=Descriptor(OrderedPartitionedKVOutput),
            input_descriptor=Descriptor(OrderedGroupedKVInput),
        )


def test_depths_and_descendants():
    a, b, c, d = v("a"), v("b"), v("c"), v("d")
    dag = DAG("diamond")
    for x in (a, b, c, d):
        dag.add_vertex(x)
    dag.add_edge(Edge(a, b, sg_prop()))
    dag.add_edge(Edge(a, c, sg_prop()))
    dag.add_edge(Edge(b, d, sg_prop()))
    dag.add_edge(Edge(c, d, sg_prop()))
    depths = dag.vertex_depths()
    assert depths == {"a": 0, "b": 1, "c": 1, "d": 2}
    assert dag.descendants("a") == {"b", "c", "d"}
    assert dag.descendants("d") == set()
    assert {x.name for x in dag.root_vertices()} == {"a"}
    assert {x.name for x in dag.leaf_vertices()} == {"d"}


def test_duplicate_data_source_rejected():
    from repro.tez import DataSourceDescriptor
    from repro.tez.library import HdfsInput
    vertex = v("a")
    ds = DataSourceDescriptor(Descriptor(HdfsInput))
    vertex.add_data_source("in", ds)
    with pytest.raises(DagValidationError):
        vertex.add_data_source("in", ds)


def _one_vertex_reader(initializer=None, **vertex_args):
    """One vertex reading ``/in`` through a data source, writing
    ``/out``."""
    from repro.tez import DataSourceDescriptor
    from repro.tez.library import HdfsInput
    from helpers import hdfs_sink

    m = Vertex("m", Descriptor(FnProcessor, {
        "fn": lambda c, d: {"out": list(d["in"])},
    }), parallelism=2, **vertex_args)
    m.add_data_source("in", DataSourceDescriptor(Descriptor(HdfsInput),
                                                 initializer))
    hdfs_sink(m, "out", "/out")
    return DAG("reader").add_vertex(m)


def test_root_input_without_initializer_rejected():
    """The root-input manager schedules once an initializer reports
    splits, so a vertex whose sources have none would sit RUNNING."""
    with pytest.raises(DagValidationError, match=r"'m'.*\['in'\]"):
        _one_vertex_reader().verify()


def test_root_input_without_initializer_allowed_with_another_manager():
    from repro.tez.vertex_manager import ImmediateStartVertexManager

    _one_vertex_reader(
        vertex_manager=Descriptor(ImmediateStartVertexManager)).verify()
    # A sequential in-edge picks a scheduling manager of its own.
    dag = _one_vertex_reader()
    up = v("up", 2)
    dag.add_vertex(up).add_edge(Edge(up, dag.vertices["m"], sg_prop()))
    dag.verify()


def test_root_input_with_initializer_runs_to_success():
    from repro.tez.library import HdfsInputInitializer
    from helpers import make_sim

    sim = make_sim()
    sim.hdfs.write("/in", [(i % 5, i) for i in range(100)],
                   record_bytes=24)
    dag = _one_vertex_reader(
        Descriptor(HdfsInputInitializer, {"paths": ["/in"]}))
    dag.verify()
    handle = sim.tez_client().submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert sorted(sim.hdfs.read_file("/out")) == sorted(
        (i % 5, i) for i in range(100))


def test_root_input_without_initializer_fails_instead_of_hanging():
    """The client rejects the DAG before anything is launched: no
    application reaches the RM, so no AM attempt crashes on it."""
    from helpers import make_sim

    sim = make_sim()
    sim.hdfs.write("/in", [(i, i) for i in range(10)], record_bytes=24)
    client = sim.tez_client()
    with pytest.raises(DagValidationError,
                       match=r"data sources \['in'\] have no initializer"):
        client.submit_dag(_one_vertex_reader())
    assert not sim.rm.am_service.records
    assert not sim.rm.scheduler.apps
    sim.env.run(until=sim.env.now + 10)
    assert not sim.rm.am_service.records and client.last_am is None
