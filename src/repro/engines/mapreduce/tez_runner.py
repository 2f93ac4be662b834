"""MapReduce on Tez (paper 5.1).

"MapReduce can be easily written as a Tez based application": a map
vertex and a reduce vertex connected by a scatter-gather edge, with
built-in Map/Reduce processors. Unmodified MRJobs run on Tez by just
switching the runner — and pipelines gain sessions, container reuse
and all the execution efficiencies of section 4.2.

A job runs as the one-job stitch (:func:`stitch_pipeline` of ``[job]``):
one translation of the MRJob contract serves single jobs and stitched
workflows alike.
"""

from __future__ import annotations

from typing import Generator

from ...tez import TezClient
from .model import MRJob
from .stitcher import run_stitched

__all__ = ["MapReduceTezRunner"]


class MapReduceTezRunner:
    """Runs unmodified MRJobs through Tez (optionally in a session)."""

    def __init__(self, client: TezClient):
        self.client = client

    def run_job(self, job: MRJob) -> Generator:
        """Process: run one job; returns its JobResult. A job with
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
