"""Shared builders for Tez integration tests."""

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
