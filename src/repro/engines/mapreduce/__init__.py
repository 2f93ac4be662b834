"""MapReduce: the job model, the native YARN baseline runner, and the
MR-on-Tez front-end (paper 5.1) that stitches workflows into one DAG
(paper section 7)."""

from .model import JobResult, MRJob, map_side_job
from .stitcher import (
    MapReduceTezRunner,
    StitchError,
    run_stitched,
    stitch_pipeline,
)
from .yarn_runner import JobHandle, MapReduceYarnRunner

__all__ = [
    "JobHandle",
    "JobResult",
    "MRJob",
    "MapReduceTezRunner",
    "MapReduceYarnRunner",
    "StitchError",
    "map_side_job",
    "run_stitched",
    "stitch_pipeline",
]
