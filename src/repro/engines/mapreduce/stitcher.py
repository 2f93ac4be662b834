"""MapReduce on Tez (paper 5.1) and workflow stitching (paper §7).

"MapReduce can be easily written as a Tez based application": a job is
a map stage, plus a reduce stage behind a grouped scatter-gather when
it has a reducer, lowered by the one stage-graph lowering
(``engines/lowering.py``) like every other front-end's plan.

"A tactical idea is to create tooling that enables a full MapReduce
workflow to be stitched into a single Tez DAG" — legacy MR pipelines
then skip the HDFS materialization between jobs: job N's reduce output
flows to job N+1's map over a direct edge instead of replicated HDFS
files, and the whole workflow shares one AM and one container pool.

Only jobs whose data dependency is linear (each job reads exactly the
previous job's output) are eligible; the head job still reads its real
HDFS inputs and the tail job still commits to HDFS. A single job runs
as the one-job stitch, so one translation of the MRJob contract serves
single jobs and stitched workflows alike.
"""

from __future__ import annotations

from typing import Generator

from ...tez import DAG, DataMovementType, TezClient
from ..lowering import Exchange, Root, Sink, Stage, to_dag
from .model import JobResult, MRJob

__all__ = ["stitch_pipeline", "StitchError", "run_stitched",
           "MapReduceTezRunner"]


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
        if job.cache_paths:
            raise StitchError(
                f"job {job.name!r} reads a distributed cache: cannot "
                f"stitch"
            )


def _as_is(ctx, records):
    """MR records cross every exchange, root and sink unchanged."""
    return records


def _map(job: MRJob):
    def combine(ctx, inputs):
        (records,) = inputs.values()
        return list(job.map_split(records))
    return combine


def _reduce(job: MRJob):
    def combine(ctx, inputs):
        (grouped,) = inputs.values()
        if job.descending_sort:
            grouped = reversed(grouped)
        out = []
        for key, values in grouped:
            out.extend(job.reducer(key, values))
        return out
    return combine


def stitch_pipeline(jobs: list[MRJob], dag_name: str = "stitched") -> DAG:
    """Translate a linear MRJob chain into one Tez DAG.

    Stages alternate map/reduce per job; the inter-job HDFS write +
    read becomes an ungrouped scatter-gather — the exact replicated-
    materialization cost the stitching removes.
    """
    _check_linear(jobs)
    stages: list[Stage] = []
    tail = None
    for idx, job in enumerate(jobs):
        map_stage = Stage(f"map_{idx}",
                          -1 if tail is None else max(1, job.num_reducers),
                          combine=_map(job))
        if tail is None:
            map_stage.roots["input"] = Root({"paths": job.input_paths},
                                            _as_is)
        else:
            # Direct hand-off: what used to be an HDFS round trip.
            map_stage.in_exchanges.append(Exchange(
                tail, DataMovementType.SCATTER_GATHER, _as_is, _as_is))
        stages.append(map_stage)
        tail = map_stage
        if job.reducer is not None:
            tail = Stage(f"reduce_{idx}", job.num_reducers,
                         combine=_reduce(job))
            tail.in_exchanges.append(Exchange(
                map_stage, DataMovementType.SCATTER_GATHER, _as_is,
                _as_is, grouped=True, partitioner=job.partitioner,
                combiner=job.spill_combiner()))
            stages.append(tail)
    last = jobs[-1]
    tail.sinks.append(Sink("output", last.output_path,
                           lambda records: records,
                           last.output_record_bytes))
    return to_dag(dag_name, stages)


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


class MapReduceTezRunner:
    """Runs unmodified MRJobs through Tez (optionally in a session):
    pipelines gain sessions, container reuse and all the execution
    efficiencies of section 4.2 by just switching the runner."""

    def __init__(self, client: TezClient):
        self.client = client

    def run_job(self, job: MRJob) -> Generator:
        """Process: run one job as the one-job stitch (vertices
        ``map_0`` / ``reduce_0``); returns its JobResult. A job with
        per-path mappers raises :class:`StitchError`."""
        return (yield from run_stitched(self.client, [job], job.name))

    def run_pipeline(self, jobs: list[MRJob]) -> Generator:
        results = []
        for job in jobs:
            result = yield from self.run_job(job)
            results.append(result)
            if not result.succeeded:
                break
        return results
