"""Workflow stitching: a chain of MRJobs as ONE Tez DAG (paper §7).

"A tactical idea is to create tooling that enables a full MapReduce
workflow to be stitched into a single Tez DAG" — legacy MR pipelines
then skip the HDFS materialization between jobs: job N's reduce output
flows to job N+1's map over a direct edge instead of replicated HDFS
files, and the whole workflow shares one AM and one container pool.

Only jobs whose data dependency is linear (each job reads exactly the
previous job's output) are eligible; the head job still reads its real
HDFS inputs and the tail job still commits to HDFS.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...shuffle import group_by_key
from ...tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    TezClient,
    Vertex,
)
from ...tez.library import (
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
    UnorderedKVInput,
    UnorderedPartitionedKVOutput,
)
from .model import JobResult, MRJob

__all__ = ["stitch_pipeline", "StitchError", "run_stitched"]


class StitchError(ValueError):
    """The job chain cannot be stitched into one DAG."""


def _check_linear(jobs: list[MRJob]) -> None:
    if not jobs:
        raise StitchError("empty pipeline")
    for prev, job in zip(jobs, jobs[1:]):
        if job.input_paths != [prev.output_path]:
            raise StitchError(
                f"job {job.name!r} does not read exactly the output of "
                f"{prev.name!r}: cannot stitch"
            )
    for job in jobs:
        if job.path_mappers:
            raise StitchError(
                f"job {job.name!r} uses per-path mappers: cannot stitch"
            )


def _map_fn(job: MRJob, target: str):
    def fn(ctx, data):
        (records,) = data.values()
        out = []
        mapper = job.mapper
        if getattr(mapper, "batch", False):
            out.extend(mapper(list(records)))
        else:
            for record in records:
                out.extend(mapper(record))
        return {target: out}
    return fn


def _reduce_fn(job: MRJob, target: str):
    def fn(ctx, data):
        (grouped,) = data.values()
        if job.descending_sort:
            grouped = reversed(grouped)
        out = []
        for key, values in grouped:
            out.extend(job.reducer(key, values))
        return {target: out}
    return fn


def stitch_pipeline(jobs: list[MRJob], dag_name: str = "stitched") -> DAG:
    """Translate a linear MRJob chain into one Tez DAG.

    Vertices alternate map/reduce per job; the inter-job HDFS write +
    read becomes a direct edge (one-to-one records, unsorted) — the
    exact replicated-materialization cost the stitching removes.
    """
    _check_linear(jobs)
    dag = DAG(dag_name)
    prev_vertex: Optional[Vertex] = None
    for idx, job in enumerate(jobs):
        is_last = idx == len(jobs) - 1
        map_target = f"reduce_{idx}" if job.reducer is not None else (
            "output" if is_last else f"map_{idx + 1}"
        )
        map_vertex = Vertex(
            f"map_{idx}",
            Descriptor(FnProcessor, {
                "fn": _map_fn(job, map_target),
                "cpu_per_record": job.map_cpu_per_record,
            }),
            parallelism=-1 if prev_vertex is None else max(
                1, job.num_reducers or 1
            ),
        )
        if prev_vertex is None:
            map_vertex.add_data_source("input", DataSourceDescriptor(
                Descriptor(HdfsInput),
                Descriptor(HdfsInputInitializer,
                           {"paths": job.input_paths}),
            ))
        else:
            dag.add_vertex(map_vertex)
            # Direct hand-off: what used to be an HDFS round trip.
            dag.add_edge(Edge(prev_vertex, map_vertex, EdgeProperty(
                DataMovementType.SCATTER_GATHER,
                output_descriptor=Descriptor(
                    UnorderedPartitionedKVOutput
                ),
                input_descriptor=Descriptor(UnorderedKVInput),
            )))
        if map_vertex.name not in dag.vertices:
            dag.add_vertex(map_vertex)

        if job.reducer is None:
            tail_vertex = map_vertex
        else:
            reduce_vertex = Vertex(
                f"reduce_{idx}",
                Descriptor(FnProcessor, {
                    "fn": _reduce_fn(
                        job,
                        "output" if is_last else f"map_{idx + 1}",
                    ),
                    "cpu_per_record": job.reduce_cpu_per_record,
                }),
                parallelism=job.num_reducers,
            )
            dag.add_vertex(reduce_vertex)
            combiner = None
            if job.combiner is not None:
                def combiner(records, _c=job.combiner):
                    out = []
                    for key, values in group_by_key(records):
                        out.extend(_c(key, values))
                    return out
            dag.add_edge(Edge(map_vertex, reduce_vertex, EdgeProperty(
                DataMovementType.SCATTER_GATHER,
                output_descriptor=Descriptor(
                    OrderedPartitionedKVOutput,
                    {"combiner": combiner,
                     "partitioner": job.partitioner},
                ),
                input_descriptor=Descriptor(OrderedGroupedKVInput),
            )))
            tail_vertex = reduce_vertex
        if is_last:
            sink = DataSinkDescriptor(
                Descriptor(HdfsOutput, {
                    "path": job.output_path,
                    "record_bytes": job.output_record_bytes,
                }),
                Descriptor(HdfsOutputCommitter, {
                    "path": job.output_path,
                    "record_bytes": job.output_record_bytes,
                }),
            )
            tail_vertex.add_data_sink("output", sink)
        prev_vertex = tail_vertex
    return dag


def run_stitched(client: TezClient, jobs: list[MRJob],
                 dag_name: str = "stitched") -> Generator:
    """Process: stitch and run; returns one JobResult for the chain."""
    dag = stitch_pipeline(jobs, dag_name)
    status = yield from client.run_dag(dag)
    return JobResult(
        name=dag_name,
        succeeded=status.succeeded,
        start_time=status.start_time,
        finish_time=status.finish_time,
        diagnostics=status.diagnostics,
        metrics=dict(status.metrics),
    )
