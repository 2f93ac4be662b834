"""Shared builders for Tez integration tests."""

import math

from repro import SimCluster
from repro.tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    Vertex,
)
from repro.tez.library import (
    BroadcastKVInput,
    BroadcastKVOutput,
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OneToOneInput,
    OneToOneOutput,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
    UnorderedKVInput,
    UnorderedPartitionedKVOutput,
)

SG = DataMovementType.SCATTER_GATHER
BC = DataMovementType.BROADCAST
OO = DataMovementType.ONE_TO_ONE


def bare_scheduler(scheduler_cls=None, queues=None, **kwargs):
    """A capacity scheduler with no RM around it: ticks are driven by
    hand and NodeManagers report completions straight back to it.
    ``kwargs`` are split between ClusterSpec fields and the scheduler's
    own keyword arguments. Returns ``(env, cluster, scheduler)``."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.sim import Environment
    from repro.yarn import CapacityScheduler, NodeManager, SecurityManager

    sched_keys = ("node_locality_delay", "rack_locality_delay",
                  "preemption_enabled")
    sched_kwargs = {k: kwargs.pop(k) for k in sched_keys if k in kwargs}
    env = Environment()
    cluster = Cluster(env, ClusterSpec(**kwargs))
    security = SecurityManager(enabled=False)

    def completed(status, container):
        sched.container_completed(status.container_id.app_id,
                                  status.container_id)

    nms = {
        node_id: NodeManager(env, node, security, completed)
        for node_id, node in cluster.nodes.items()
    }
    sched = (scheduler_cls or CapacityScheduler)(
        env, cluster, nms, queues, **sched_kwargs)
    return env, cluster, sched


def rows_close(a, b, ordered=False) -> bool:
    """Row-list equality up to EXPERIMENTS.md divergence 5, the one
    thing forgiven between two executions of one program: a float SUM /
    AVG folded in another order (Tez and MapReduce merge one partial
    state per split, the reference folds every row into one) differs in
    its last bits - relative 1e-9 here, far above n * eps for any sum
    the tests make and far below a lost or doubled row. Everything else
    - row count, NULLs, ints, strings, NaN-ness - must be equal. Where
    the arithmetic is exact (MIN / MAX, counts, integer-valued data)
    compare with ``==`` instead: reordering is then not an excuse."""
    def rough(row):
        return repr(tuple(float(f"{v:.6g}") if isinstance(v, float) else v
                          for v in row))

    def close(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (x != x and y != y) \
                or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        return x == y

    if not ordered:
        a, b = sorted(a, key=rough), sorted(b, key=rough)
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(map(close, ra, rb))
        for ra, rb in zip(a, b))


def make_sim(**overrides):
    defaults = dict(num_nodes=4, nodes_per_rack=2, hdfs_block_size=4096,
                    memory_per_node_mb=16 * 1024, cores_per_node=8)
    defaults.update(overrides)
    return SimCluster(**defaults)


def edge(source, target, movement, **prop_kwargs):
    """Edge with the canonical IO pair for the movement type."""
    if movement == SG:
        out_d, in_d = (
            Descriptor(OrderedPartitionedKVOutput),
            Descriptor(OrderedGroupedKVInput),
        )
    elif movement == BC:
        out_d, in_d = Descriptor(BroadcastKVOutput), Descriptor(BroadcastKVInput)
    elif movement == OO:
        out_d, in_d = Descriptor(OneToOneOutput), Descriptor(OneToOneInput)
    else:
        raise ValueError(movement)
    return Edge(source, target, EdgeProperty(
        movement, output_descriptor=out_d, input_descriptor=in_d,
        **prop_kwargs,
    ))


def fn_vertex(name, fn, parallelism, **payload):
    return Vertex(name, Descriptor(FnProcessor, {"fn": fn, **payload}),
                  parallelism=parallelism)


def hdfs_source(vertex, input_name, paths, **init_payload):
    vertex.add_data_source(input_name, DataSourceDescriptor(
        Descriptor(HdfsInput),
        Descriptor(HdfsInputInitializer,
                   {"paths": paths, **init_payload}),
    ))
    return vertex


def hdfs_sink(vertex, output_name, path, **payload):
    vertex.add_data_sink(output_name, DataSinkDescriptor(
        Descriptor(HdfsOutput, {"path": path, **payload}),
        Descriptor(HdfsOutputCommitter, {"path": path, **payload}),
    ))
    return vertex


def run_dag(sim, dag, config=None, session=False, client=None):
    """Submit and drive to completion; returns (status, client)."""
    if client is None:
        client = sim.tez_client(config=config, session=session)
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    return handle.status, client
