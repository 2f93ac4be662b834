"""Pig runners: execute scripts on Tez or MapReduce backends."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ...harness import SimCluster
from ...tez import TezClient
from ..mapreduce.yarn_runner import MapReduceYarnRunner
from .compiler_mr import run_pig_on_mr
from .compiler_tez import PigTezCompiler
from .model import PigScript
from .reference import execute_script

__all__ = ["PigRunner", "PigResult"]


@dataclass
class PigResult:
    script: str
    backend: str
    elapsed: float
    outputs: dict[str, list]          # store path -> tuples
    jobs: int = 1
    metrics: dict = field(default_factory=dict)


class PigRunner:
    """Runs Pig scripts against the simulated cluster."""

    def __init__(self, sim: SimCluster,
                 tez_client: Optional[TezClient] = None):
        self.sim = sim
        self._tez_client = tez_client
        self._mr_runner = MapReduceYarnRunner(
            sim.env, sim.rm, sim.hdfs, sim.shuffle
        )

    @property
    def tez_client(self) -> TezClient:
        if self._tez_client is None:
            self._tez_client = self.sim.tez_client(name="pig", session=True)
            self._tez_client.start()
        return self._tez_client

    def close(self) -> None:
        if self._tez_client is not None:
            self._tez_client.stop()

    # ------------------------------------------------------------ backends
    def execute(self, script: PigScript,
                backend: str = "tez") -> Generator:
        """Process: run the script; returns a PigResult."""
        start = self.sim.env.now
        if backend == "reference":
            rows = execute_script(script, self.sim.hdfs)
            outputs = {
                path: [
                    tuple(r[c] for c in rel.schema) for r in rows[path]
                ]
                for rel, path in script.stores
            }
            yield self.sim.env.timeout(0)
            return PigResult(script.name, backend, 0.0, outputs, jobs=0)
        if backend == "tez":
            dag, _outs = PigTezCompiler().compile(script)
            status = yield from self.tez_client.run_dag(dag)
            if not status.succeeded:
                raise RuntimeError(
                    f"pig-on-tez failed: {status.diagnostics}"
                )
            outputs = {
                path: list(self.sim.hdfs.read_file(path))
                for _rel, path in script.stores
            }
            return PigResult(
                script.name, backend, status.elapsed, outputs,
                jobs=1, metrics=dict(status.metrics),
            )
        if backend == "mr":
            outputs, results = yield from run_pig_on_mr(
                script, self._mr_runner
            )
            return PigResult(
                script.name, backend, self.sim.env.now - start,
                {p: list(rows) for p, rows in outputs.items()},
                jobs=len(results),
                metrics={"mr_jobs": len(results)},
            )
        raise ValueError(f"unknown backend {backend!r}")

    def run(self, script: PigScript, backend: str = "tez") -> PigResult:
        proc = self.sim.env.process(self.execute(script, backend))
        self.sim.env.run(until=proc)
        return proc.value
