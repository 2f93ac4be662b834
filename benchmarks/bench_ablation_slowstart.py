"""Ablation: shuffle slow-start scheduling (paper 3.4).

Consumer tasks can start before all producers finish and overlap their
expensive cross-network fetch with remaining producer work. Compares
no-overlap (start at 100% of maps) against the default 25-75% window
on a shuffle-heavy job. Expected shape: slow-start hides fetch latency
and shortens the job.
"""

import pytest

from repro import SimCluster
from repro.bench import BenchTable, speedup
from repro.tez import (
    DAG, DataMovementType, DataSinkDescriptor, DataSourceDescriptor,
    Descriptor, Edge, EdgeProperty, ShuffleVertexManager,
    ShuffleVertexManagerConfig, Vertex,
)
from repro.tez.library import (
    FnProcessor, HdfsInput, HdfsInputInitializer, HdfsOutput,
    HdfsOutputCommitter, OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
)


def run_once(min_f: float, max_f: float) -> float:
    # One degraded node staggers map completion: slow-start reducers
    # fetch the fast maps' output while the last map drags on.
    sim = SimCluster(num_nodes=6, nodes_per_rack=3,
                     hdfs_block_size=512 * 1024,
                     net_bw_same_rack=30 * 1024 * 1024,
                     net_bw_cross_rack=15 * 1024 * 1024)
    sim.cluster.slow_node("node0005", 0.3)
    sim.hdfs.write("/in", [(i % 16, "x" * 20) for i in range(40_000)],
                   record_bytes=220)
    m = Vertex("m", Descriptor(FnProcessor, {
        "fn": lambda c, d: {"r": list(d["src"])},
        "cpu_per_record": 4e-4,
    }), parallelism=-1)
    m.add_data_source("src", DataSourceDescriptor(
        Descriptor(HdfsInput),
        Descriptor(HdfsInputInitializer, {"paths": ["/in"]}),
    ))
    r = Vertex("r", Descriptor(FnProcessor, {
        "fn": lambda c, d: {"out": [(k, len(v)) for k, v in d["m"]]},
    }), parallelism=6)
    r.vertex_manager = Descriptor(
        ShuffleVertexManager,
        ShuffleVertexManagerConfig(
            slowstart_min_fraction=min_f, slowstart_max_fraction=max_f,
        ),
    )
    r.add_data_sink("out", DataSinkDescriptor(
        Descriptor(HdfsOutput, {"path": "/out"}),
        Descriptor(HdfsOutputCommitter, {"path": "/out"}),
    ))
    dag = DAG("slowstart").add_vertex(m).add_vertex(r)
    dag.add_edge(Edge(m, r, EdgeProperty(
        DataMovementType.SCATTER_GATHER,
        # Heavy shuffle: overlapping the fetch is what slow-start buys.
        output_descriptor=Descriptor(OrderedPartitionedKVOutput,
                                     {"bytes_per_record": 10_000}),
        input_descriptor=Descriptor(OrderedGroupedKVInput),
    )))
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded
    # Every task run, in the order the runs ended (an event's
    # timestamp is its run's end).
    trace = sim.timeline.events(kind="task.run")
    map_ends = [e.ts for e in trace if e.attrs["vertex"] == "m"]
    last_map = max(map_ends)
    # Overlap: reducer runtime spent before the last producer finished
    # (the fetch latency slow-start hides).
    overlap = sum(
        max(0.0, min(e.ts, last_map) - e.attrs["start"])
        for e in trace if e.attrs["vertex"] == "r"
    )
    return handle.status.elapsed, overlap


def run_workload():
    no_overlap, ov_none = run_once(1.0, 1.0)
    default, ov_default = run_once(0.25, 0.75)
    eager, ov_eager = run_once(0.0, 0.25)
    table = BenchTable(
        "Ablation — shuffle slow-start window",
        ["window", "elapsed_s", "prefetch_overlap_s"],
    )
    table.add("start@100%", no_overlap, ov_none)
    table.add("25-75% (default)", default, ov_default)
    table.add("0-25% (eager)", eager, ov_eager)
    table.note("overlap = reducer-seconds spent fetching before the "
               "last map finished (the latency slow-start hides)")
    table.note(f"elapsed speedup vs no-overlap: "
               f"{speedup(no_overlap, default):.2f}x")
    table.show()
    return (no_overlap, ov_none), (default, ov_default)


def test_ablation_slowstart(benchmark):
    (no_overlap, ov_none), (default, ov_default) = benchmark.pedantic(
        run_workload, rounds=1, iterations=1
    )
    # Starting at 100% cannot overlap anything; the default window
    # hides real fetch time, and never hurts end-to-end latency.
    assert ov_none == 0.0
    assert ov_default > 0.0
    assert default <= no_overlap * 1.01


if __name__ == "__main__":
    run_workload()
