"""Pig → Tez compiler (paper 5.3).

Produces a single Tez DAG per script:

* relations with several consumers become *multi-output vertices* (the
  modeling gap the paper calls out for MapReduce);
* local ops (filter/foreach/flatten) fuse into their producer's vertex;
* ORDER BY uses the paper's sample-histogram pattern: the producer
  feeds a 1-task histogram vertex, which (a) broadcasts range
  boundaries to a partitioner vertex and (b) sends a
  VertexManagerEvent to the order vertex's custom
  :class:`PartitionerDefinedVertexManager`, which adapts the vertex's
  parallelism to the observed key distribution before scheduling;
* skewed joins reuse the same machinery to range-partition both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Optional

from ...shuffle import Partitioner, RangePartitioner
from ...shuffle.sorter import sort_key
from ...tez import (
    DAG,
    DataMovementType,
    Descriptor,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    VertexManagerPlugin,
)
from ...tez.events import VertexManagerEvent
from ..lowering import (
    Exchange,
    Root,
    Stage,
    shuffle_manager,
    to_dag,
    tuple_sink,
)
from ..relational import order_rows, rows_of
from .model import DEFAULT_PARALLEL, SAMPLE_RATE, PigScript, Relation
from .reference import aggregation, hash_join, key_tuples, tuple_fields

__all__ = ["PigTezCompiler", "PigTezConfig",
           "PartitionerDefinedVertexManager", "IndexPartitioner"]


@dataclass
class PigTezConfig:
    default_parallel: int = DEFAULT_PARALLEL
    sample_rate: int = SAMPLE_RATE
    auto_parallelism: bool = True
    bytes_per_reducer: int = 64 * 1024 * 1024
    output_base: str = "/tmp/pig"


class IndexPartitioner(Partitioner):
    """Routes by a pre-computed partition index carried in the key:
    keys are (partition_index, real_key...) tuples."""

    def partition(self, key: Any, num_partitions: int) -> int:
        return min(int(key[0]), num_partitions - 1)


class PartitionerDefinedVertexManager(VertexManagerPlugin):
    """Custom manager (paper 5.3): waits for the histogram vertex's
    event carrying the boundary count, sets the vertex's parallelism to
    match, then schedules tasks once source data is complete."""

    def __init__(self, ctx, payload=None):
        super().__init__(ctx, payload)
        self._configured = False
        self._completed: dict[str, set[int]] = {}
        self._started = False

    def initialize(self) -> None:
        self._completed = {s: set() for s in self.ctx.source_vertices()}

    def on_vertex_started(self) -> None:
        self._started = True
        self._maybe_schedule()

    def on_vertex_manager_event(self, event: VertexManagerEvent) -> None:
        payload = event.payload or {}
        partitions = payload.get("num_partitions")
        if partitions and not self._configured:
            self._configured = True
            if partitions < self.ctx.vertex_parallelism:
                self.ctx.set_parallelism(partitions)
        self._maybe_schedule()

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        self._completed.setdefault(vertex_name, set()).add(task_index)
        self._maybe_schedule()

    def _maybe_schedule(self) -> None:
        if not (self._started and self._configured):
            return
        if any(self.ctx.source_parallelism(s) < 1 for s in self._completed):
            return
        ready = all(
            len(done) >= self.ctx.source_parallelism(s)
            for s, done in self._completed.items()
        )
        if ready:
            self._schedule_all()


class PigTezCompiler:
    def __init__(self, config: Optional[PigTezConfig] = None):
        self.config = config or PigTezConfig()
        self._seq = itertools.count(1)

    def _shuffle_manager(self) -> Descriptor:
        return shuffle_manager(self.config.bytes_per_reducer,
                               self.config.auto_parallelism)

    # ------------------------------------------------------------- public
    def compile(self, script: PigScript) -> tuple[DAG, dict[str, str]]:
        """Returns (dag, {store path: hdfs path})."""
        script.validate()
        self._stages: list[Stage] = []
        self._by_rel: dict[int, Stage] = {}
        self._consumer_counts = script.consumer_counts()
        outputs: dict[str, str] = {}
        for rel, path in script.stores:
            stage = self._build(rel)
            stage.sinks.append(tuple_sink(
                f"store_{next(self._seq)}", path, list(rel.schema), 48,
            ))
            outputs[path] = path
        return to_dag(script.name, self._stages), outputs

    # ------------------------------------------------------------ helpers
    def _new_stage(self, label: str, parallelism: int) -> Stage:
        stage = Stage(f"{label}_{next(self._seq)}", parallelism)
        self._stages.append(stage)
        return stage

    def _is_shared(self, rel: Relation) -> bool:
        return self._consumer_counts.get(id(rel), 0) > 1

    def _disable_auto(self, stage: Stage) -> None:
        """A stage feeding a one-to-one edge must keep its static
        parallelism (runtime shrinking would break task pairing)."""
        if stage.manager is not None and \
                stage.manager.cls is ShuffleVertexManager:
            stage.manager = Descriptor(
                ShuffleVertexManager,
                ShuffleVertexManagerConfig(auto_parallelism=False),
            )

    def _continue_from(self, rel: Relation) -> Stage:
        """Stage in which ``rel``'s single consumer may append ops.

        For shared relations a fresh stage is connected one-to-one so
        each consumer gets its own copy of the pipeline tail.
        """
        stage = self._build(rel)
        if not self._is_shared(rel):
            return stage
        self._disable_auto(stage)
        follower = self._new_stage("fused", -1)
        follower.in_exchanges.append(Exchange(
            stage, DataMovementType.ONE_TO_ONE, _rows, _rows,
            bytes_per_record=72,
        ))
        follower.combine = _single_input_combine(stage.name)
        return follower

    # -------------------------------------------------------- compilation
    def _build(self, rel: Relation) -> Stage:
        if id(rel) in self._by_rel:
            return self._by_rel[id(rel)]
        builder = getattr(self, f"_build_{rel.op}")
        stage = builder(rel)
        self._by_rel[id(rel)] = stage
        return stage

    def _build_load(self, rel: Relation) -> Stage:
        stage = self._new_stage(f"load", -1)
        # Name the root input after the stage (per-compile counter),
        # not the relation (process-global counter): input names reach
        # journals, telemetry spans and run digests, so recompiling
        # the same script must give the same DAG whatever else this
        # process compiled before it.
        input_name = f"in_{stage.name}"
        stage.roots[input_name] = Root(
            {"paths": [rel.params["path"]]},
            _tuple_decoder(list(rel.schema)),
        )
        stage.combine = _single_input_combine(input_name)
        return stage

    def _build_filter(self, rel: Relation) -> Stage:
        stage = self._continue_from(rel.parents[0])
        pred = rel.params["predicate"]
        stage.ops.append(lambda rows, _p=pred: [r for r in rows if _p(r)])
        return stage

    def _build_foreach(self, rel: Relation) -> Stage:
        stage = self._continue_from(rel.parents[0])
        fn = rel.params["fn"]
        stage.ops.append(lambda rows, _f=fn: [_f(r) for r in rows])
        return stage

    def _build_flatten(self, rel: Relation) -> Stage:
        stage = self._continue_from(rel.parents[0])
        fn = rel.params["fn"]
        stage.ops.append(
            lambda rows, _f=fn: [o for r in rows for o in _f(r)]
        )
        return stage

    def _build_group(self, rel: Relation) -> Stage:
        producer = self._build(rel.parents[0])
        keys = rel.params["keys"]
        stage = self._new_stage("group", self.config.default_parallel)
        stage.manager = self._shuffle_manager()

        def emit(ctx, rows, _k=keys):
            return list(zip(key_tuples(rows, _k), rows))

        def decode(ctx, data, _k=keys):
            return [
                {"group": key if len(_k) > 1 else key[0], "bag": bag}
                for key, bag in data
            ]

        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            grouped=True, bytes_per_record=72,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_aggregate(self, rel: Relation) -> Stage:
        producer = self._build(rel.parents[0])
        keys, aggs = rel.params["keys"], rel.params["aggs"]
        parallelism = self.config.default_parallel if keys else 1
        stage = self._new_stage("agg", parallelism)
        if keys:
            stage.manager = self._shuffle_manager()
        agg = aggregation(keys, aggs)
        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER,
            lambda ctx, rows: agg.partial(rows),
            lambda ctx, data: agg.merge_groups(data),
            grouped=True, bytes_per_record=48,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_distinct(self, rel: Relation) -> Stage:
        producer = self._build(rel.parents[0])
        schema = list(rel.schema)
        stage = self._new_stage("distinct", self.config.default_parallel)
        stage.manager = self._shuffle_manager()

        def emit(ctx, rows, _s=schema):
            return list(zip(key_tuples(rows, _s), repeat(None)))

        def decode(ctx, data, _s=schema):
            return [dict(zip(_s, key)) for key, _vals in data]

        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            grouped=True, bytes_per_record=48,
        ))
        stage.combine = _single_input_combine(producer.name)
        return stage

    def _build_union(self, rel: Relation) -> Stage:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        stage = self._new_stage("union", self.config.default_parallel)

        def emit(ctx, rows):
            return list(enumerate(rows))

        for producer in (left, right):
            stage.in_exchanges.append(Exchange(
                producer, DataMovementType.SCATTER_GATHER, emit, _values,
                bytes_per_record=72,
            ))

        def combine(ctx, inputs, _l=left.name, _r=right.name):
            return list(inputs[_l]) + list(inputs[_r])

        stage.combine = combine
        return stage

    def _build_join(self, rel: Relation) -> Stage:
        if rel.params.get("skewed"):
            return self._build_skewed_join(rel)
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        stage = self._new_stage("join", self.config.default_parallel)
        stage.manager = self._shuffle_manager()
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]

        def emit_keys(keys):
            def emit(ctx, rows, _k=keys):
                return list(zip(key_tuples(rows, _k), rows))
            return emit

        for producer, keys in ((left, lk), (right, rk)):
            stage.in_exchanges.append(Exchange(
                producer, DataMovementType.SCATTER_GATHER,
                emit_keys(keys), _values, bytes_per_record=72,
            ))
        stage.combine = _join_combine(
            left.name, right.name, lk, rk, rel.params["how"],
            rel.parents[0].schema, rel.parents[1].schema,
        )
        return stage

    def _build_skewed_join(self, rel: Relation) -> Stage:
        """Range-partitioned join driven by a key histogram."""
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]
        parallel = self.config.default_parallel
        hist = self._histogram_stage(left, lk, parallel)
        lp = self._range_partition_stage(left, hist, lk)
        rp = self._range_partition_stage(right, hist, rk)
        stage = self._new_stage("skewjoin", parallel)
        stage.manager = Descriptor(PartitionerDefinedVertexManager)
        hist.events = _make_histogram_events(stage.name)
        for producer in (lp, rp):
            stage.in_exchanges.append(Exchange(
                producer, DataMovementType.SCATTER_GATHER,
                _emit_prepartitioned, _values, bytes_per_record=72,
                partitioner=IndexPartitioner(),
            ))
        stage.combine = _join_combine(
            lp.name, rp.name, lk, rk, rel.params["how"],
            rel.parents[0].schema, rel.parents[1].schema,
        )
        return stage

    def _build_order(self, rel: Relation) -> Stage:
        producer = self._build(rel.parents[0])
        keys = rel.params["keys"]
        ascending = rel.params["ascending"]
        parallel = rel.params["parallel"]
        hist = self._histogram_stage(producer, keys, parallel)
        part = self._range_partition_stage(producer, hist, keys,
                                           ascending=ascending)
        stage = self._new_stage("order", parallel)
        stage.manager = Descriptor(PartitionerDefinedVertexManager)
        hist.events = _make_histogram_events(stage.name)
        stage.in_exchanges.append(Exchange(
            part, DataMovementType.SCATTER_GATHER,
            _emit_prepartitioned, _values, bytes_per_record=72,
            partitioner=IndexPartitioner(),
        ))
        stage.combine = _single_input_combine(part.name)

        order = [(k, ascending) for k in keys]
        stage.ops.append(lambda rows, _o=order: order_rows(rows, _o))
        return stage

    def _build_limit(self, rel: Relation) -> Stage:
        producer = self._continue_from(rel.parents[0])
        n = rel.params["n"]
        producer.ops.append(lambda rows, _n=n: rows[:_n])
        stage = self._new_stage("limit", 1)

        def emit(ctx, rows, _n=n):
            # Keys carry (producer task, sequence) so the single limit
            # task can restore the producers' order before truncating.
            return [((ctx.task_index, i), r)
                    for i, r in enumerate(rows[:_n])]

        def decode(ctx, data):
            return _values(ctx, sorted(data, key=itemgetter(0)))

        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER, emit, decode,
            bytes_per_record=72,
        ))
        stage.combine = _single_input_combine(producer.name)
        stage.ops.append(lambda rows, _n=n: rows[:_n])
        return stage

    def _histogram_stage(self, producer: Stage, keys: list[str],
                         parallel: int) -> Stage:
        hist = self._new_stage("histogram", 1)
        rate = self.config.sample_rate

        def emit_sample(ctx, rows, _k=keys, _r=rate):
            return list(zip(repeat(0), key_tuples(rows[::_r], _k)))

        def decode_sample(ctx, data, _p=parallel):
            keys_seen = [s for _zero, bag in data for s in bag]
            partitioner = RangePartitioner.from_sample(
                sorted(keys_seen, key=sort_key), _p
            )
            # Collapse duplicate boundaries (heavy skew).
            uniq = []
            for b in partitioner.boundaries:
                if not uniq or uniq[-1] != b:
                    uniq.append(b)
            return [{"boundaries": uniq}]

        hist.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER, emit_sample,
            decode_sample, grouped=True, bytes_per_record=32,
        ))
        hist.combine = _single_input_combine(producer.name)
        return hist

    def _range_partition_stage(self, producer: Stage, hist: Stage,
                               keys: list[str],
                               ascending: bool = True) -> Stage:
        self._disable_auto(producer)
        stage = self._new_stage("partition", -1)
        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.ONE_TO_ONE, _rows, _rows,
            bytes_per_record=72,
        ))
        stage.in_exchanges.append(Exchange(
            hist, DataMovementType.BROADCAST, _rows, _rows,
            bytes_per_record=32,
        ))

        def combine(ctx, inputs, _p=producer.name, _h=hist.name,
                    _k=keys, _asc=ascending):
            boundaries = inputs[_h][0]["boundaries"]
            count = len(boundaries) + 1
            rp = RangePartitioner(boundaries)
            out = []
            rows = inputs[_p]
            for key, row in zip(key_tuples(rows, _k), rows):
                idx = rp.partition(key, count)
                if not _asc:
                    idx = count - 1 - idx
                out.append({"__part": idx, "__row": row})
            return out

        stage.combine = combine
        return stage


# -------------------------------------------------------------- helpers
def _tuple_decoder(schema: list[str]) -> Callable:
    fields = tuple_fields(schema)

    def decoder(ctx, records):
        return rows_of(records, fields)
    return decoder


def _rows(ctx, rows):
    """Emit and decode of a keyless edge: the rows as they are."""
    return list(rows)


def _values(ctx, data):
    """Decoder of an ungrouped edge: the rows, without their keys."""
    return list(map(itemgetter(1), data))


def _single_input_combine(name: str) -> Callable:
    def combine(ctx, inputs, _n=name):
        return inputs[_n]
    return combine


def _join_combine(left_name, right_name, lk, rk, how,
                  left_schema, right_schema) -> Callable:
    right_only = [c for c in right_schema if c not in left_schema]

    def combine(ctx, inputs):
        return hash_join(inputs[left_name], inputs[right_name], lk, rk,
                         how, right_only)

    return combine


def _emit_prepartitioned(ctx, rows):
    return [((r["__part"],), r["__row"]) for r in rows]


def _make_histogram_events(target_vertex: str) -> Callable:
    def events(ctx, rows, _t=target_vertex):
        boundaries = rows[0]["boundaries"] if rows else []
        ctx.send_event(VertexManagerEvent(
            target_vertex=_t,
            payload={"num_partitions": max(1, len(boundaries) + 1)},
        ))
    return events
