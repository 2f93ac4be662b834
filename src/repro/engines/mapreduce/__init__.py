"""MapReduce: the job model, the native YARN baseline runner, the
MR-on-Tez runner (paper 5.1, a one-job stitch) and workflow stitching
(paper section 7)."""

from .model import JobResult, MRJob, map_side_job
from .stitcher import StitchError, run_stitched, stitch_pipeline
from .tez_runner import MapReduceTezRunner
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
