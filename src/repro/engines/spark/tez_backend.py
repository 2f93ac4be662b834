"""Spark-on-Tez backend (paper 5.4).

"We were able to encode the post-compilation Spark DAG into a Tez DAG
and run it successfully in a YARN cluster that was not running the
Spark engine service." Each action's stage graph becomes one Tez DAG
submitted to a shared Tez session: ephemeral per-task containers,
acquired and released as the job needs them — the multi-tenancy
behaviour measured in Figures 12/13.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Optional

from ...tez import (
    DAG,
    DataMovementType,
    Descriptor,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    TezClient,
)
from ..lowering import Exchange, Root, Sink, Stage as TezStage, to_dag
from .rdd import Stage

__all__ = ["SparkTezBackend"]


class SparkTezBackend:
    """Runs compiled stage graphs through a Tez session."""

    def __init__(self, sim, queue: str = "default",
                 tez_client: Optional[TezClient] = None,
                 prewarm: int = 0):
        self.sim = sim
        self._client = tez_client
        self._queue = queue
        self._seq = itertools.count(1)
        self._prewarm = prewarm
        self.name = "tez"

    @property
    def client(self) -> TezClient:
        if self._client is None:
            self._client = self.sim.tez_client(
                name="spark", session=True, queue=self._queue,
            )
            self._client.start()
        return self._client

    def start(self) -> None:
        self.client  # touch: launches the session AM
        if self._prewarm:
            self.client.prewarm(self._prewarm)

    def stop(self) -> None:
        if self._client is not None:
            self._client.stop()

    def run_job(self, stages: list[Stage], result: Stage,
                action: tuple, name: str) -> Generator:
        dag, out_path = self._build_dag(stages, result, action, name)
        kind, _arg = action
        try:
            status = yield from self.client.run_dag(dag)
            if not status.succeeded:
                raise RuntimeError(
                    f"spark-on-tez failed: {status.diagnostics}")
            records = list(self.sim.hdfs.read_file(out_path))
        finally:
            # A count's or collect's result file is scratch; a save's
            # path is the user's.
            if kind != "save":
                self.sim.hdfs.delete_tree(out_path)
        if kind == "count":
            return sum(n for _z, n in records)
        if kind == "collect":
            return records
        return out_path

    # ------------------------------------------------------------- compile
    def _build_dag(self, stages: list[Stage], result: Stage,
                   action: tuple, name: str) -> tuple[DAG, str]:
        kind, arg = action
        out_path = arg if kind == "save" else \
            f"/tmp/spark/{name}_{next(self._seq)}"
        lowered: dict[int, TezStage] = {}
        for stage in stages:
            low = TezStage(
                f"stage_{stage.stage_id}",
                -1 if stage.sources else stage.num_partitions,
            )
            if stage.sources:
                paths = list(dict.fromkeys(p for p, _t in stage.sources))
                low.roots["hdfs"] = Root(
                    {"paths": paths}, _by_source(stage.sources),
                    input_payload={"with_paths": True},
                )
            if stage.parents:
                # Conservative slow-start: on the shared, contended
                # clusters of the multi-tenancy experiments, eager
                # out-of-order reducers just invite preemption.
                low.manager = Descriptor(
                    ShuffleVertexManager,
                    ShuffleVertexManagerConfig(
                        slowstart_min_fraction=0.8,
                        slowstart_max_fraction=1.0,
                    ),
                )
            for parent, _tag in stage.parents:
                low.in_exchanges.append(Exchange(
                    lowered[parent.stage_id],
                    DataMovementType.SCATTER_GATHER,
                    _emitter(parent.shuffle_emit), _copy,
                ))
            low.combine = _compute(stage)
            if stage is result:
                low.sinks.append(Sink(
                    "out", out_path, _count if kind == "count" else list,
                ))
            lowered[stage.stage_id] = low
        return to_dag(name, list(lowered.values())), out_path


def _by_source(sources: list[tuple[str, str]]) -> Callable:
    """Root decode: the path-tagged records of the one HDFS input,
    regrouped as {source tag: records under that source's path}."""
    def decode(ctx, tagged):
        by_path: dict[str, list] = {}
        for path, record in tagged:
            by_path.setdefault(path, []).append(record)
        return {tag: [r for p, rows in by_path.items()
                      if p == path or p.startswith(f"{path}/")
                      for r in rows]
                for path, tag in sources}
    return decode


def _compute(stage: Stage) -> Callable:
    compute = stage.compute
    parents = [(f"stage_{p.stage_id}", tag) for p, tag in stage.parents]

    def combine(ctx, inputs):
        by_tag = dict(inputs.get("hdfs", {}))
        for vertex, tag in parents:
            by_tag[tag] = inputs[vertex]
        return compute(by_tag)
    return combine


def _emitter(shuffle_emit: Optional[Callable]) -> Callable:
    if shuffle_emit is None:
        return _copy
    return lambda ctx, records: list(shuffle_emit(records))


def _copy(ctx, records):
    return list(records)


def _count(records):
    return [(0, len(records))]
