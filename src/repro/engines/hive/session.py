"""HiveSession: parse → plan → optimize → execute on a backend.

Backends:

* ``"tez"`` — compile to one Tez DAG, submit to a (shared, pre-warmable)
  Tez session; paper 5.2 / 6.1.
* ``"mr"``  — compile to a chain of MapReduce jobs on the native YARN
  runner; the paper's baseline.
* ``"reference"`` — in-memory execution (no simulation), used for
  differential testing.

All three produce identical rows; only the simulated time differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ...harness import SimCluster
from ...tez import TezClient, TezConfig
from ..mapreduce.yarn_runner import MapReduceYarnRunner
from .catalog import Catalog
from .compiler_mr import MRCompiler
from .compiler_tez import TezCompiler
from .optimizer import Optimizer, OptimizerConfig
from .parser import parse
from .plan import PlanNode, build_plan
from .reference import execute_plan

__all__ = ["HiveSession", "QueryResult"]


@dataclass
class QueryResult:
    sql: str
    columns: list[str]
    rows: list[tuple]
    elapsed: float
    backend: str
    jobs: int = 1                     # MR jobs or Tez DAGs submitted
    metrics: dict = field(default_factory=dict)


class HiveSession:
    """A Hive connection: SQL in, rows out, on a chosen backend.

    Holds the catalog, the optimizer, both compilers, a shared Tez
    session (lazily started, pre-warmable) and an MR runner; every
    ``execute``/``run`` parses, plans, optimizes and executes one
    query. See the module docstring for backend semantics.
    """

    def __init__(
        self,
        sim: SimCluster,
        catalog: Optional[Catalog] = None,
        backend: str = "tez",
        optimizer_config: Optional[OptimizerConfig] = None,
        tez_framework_config: Optional[TezConfig] = None,
        queue: str = "default",
    ):
        if backend not in ("tez", "mr", "reference"):
            raise ValueError(f"unknown backend {backend!r}")
        self.sim = sim
        self.catalog = catalog or Catalog()
        self.backend = backend
        self.optimizer = Optimizer(optimizer_config)
        self.tez_compiler = TezCompiler(self.catalog)
        self.mr_compiler = MRCompiler(self.catalog)
        self._query_seq = 0
        self._tez_client: Optional[TezClient] = None
        self._tez_framework_config = tez_framework_config
        self._queue = queue
        self._mr_runner = MapReduceYarnRunner(
            sim.env, sim.rm, sim.hdfs, sim.shuffle, queue=queue,
        )

    # ------------------------------------------------------------ plumbing
    @property
    def tez_client(self) -> TezClient:
        if self._tez_client is None:
            self._tez_client = self.sim.tez_client(
                name="hive", session=True, queue=self._queue,
                config=self._tez_framework_config,
            )
            self._tez_client.start()
        return self._tez_client

    def prewarm(self, count: int) -> None:
        self.tez_client.prewarm(count)

    def close(self) -> None:
        if self._tez_client is not None:
            self._tez_client.stop()

    def plan(self, sql: str) -> PlanNode:
        query = parse(sql)
        plan = build_plan(self.catalog, query)
        return self.optimizer.optimize(plan)

    def explain(self, sql: str) -> str:
        return self.plan(sql).describe()

    # ------------------------------------------------------------- execute
    def execute(self, sql: str, backend: Optional[str] = None) -> Generator:
        """Process: run the query; returns a QueryResult."""
        backend = backend or self.backend
        plan = self.plan(sql)
        self._query_seq += 1
        name = f"q{self._query_seq}"
        start = self.sim.env.now
        if backend == "reference":
            rows_dicts = execute_plan(plan, self.sim.hdfs)
            columns = plan.output_columns()
            rows = [tuple(r[c] for c in columns) for r in rows_dicts]
            yield self.sim.env.timeout(0)
            return QueryResult(sql, columns, rows, 0.0, backend)
        if backend == "tez":
            dag, columns, output_path = self.tez_compiler.compile(
                plan, name
            )
            status = yield from self.tez_client.run_dag(dag)
            if not status.succeeded:
                raise RuntimeError(
                    f"query failed on tez: {status.diagnostics}"
                )
            rows = list(self.sim.hdfs.read_file(output_path))
            return QueryResult(
                sql, columns, rows, status.elapsed, backend,
                jobs=1, metrics=dict(status.metrics),
            )
        # MapReduce chain.
        compiled = self.mr_compiler.compile(plan, name)
        results = yield from self._mr_runner.run_pipeline(compiled.jobs)
        failed = [r for r in results if not r.succeeded]
        if failed:
            raise RuntimeError(
                f"query failed on mr: {failed[0].diagnostics}"
            )
        rows = list(self.sim.hdfs.read_file(compiled.output_path))
        return QueryResult(
            sql, compiled.columns, rows, self.sim.env.now - start,
            backend, jobs=len(compiled.jobs),
            metrics={"mr_jobs": len(compiled.jobs)},
        )

    def run(self, sql: str, backend: Optional[str] = None) -> QueryResult:
        """Drive the simulation until the query completes (top-level
        convenience for scripts and tests)."""
        proc = self.sim.env.process(self.execute(sql, backend))
        self.sim.env.run(until=proc)
        return proc.value
