"""One lowering from a stage graph to a Tez DAG (paper section 5).

Hive, Pig and Spark each cut their plan into *stages* joined by
*exchanges* - that is all a front-end decides: where to cut, what a
stage computes, what an exchange emits and decodes, and how parallel a
stage runs. How that graph runs is decided here, once, for all three:
:func:`to_dag` picks the output/input pair that realises each exchange,
builds the vertices and edges, and writes the function every task of a
stage runs inside :class:`FnProcessor`:

    decode roots and exchanges -> combine -> fused ops -> events
        -> emit to each consumer + encode each sink
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Optional

from ..tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    Vertex,
)
from ..tez.library import (
    BroadcastKVInput,
    BroadcastKVOutput,
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OneToOneInput,
    OneToOneOutput,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
    UnorderedKVInput,
    UnorderedPartitionedKVOutput,
)

__all__ = ["Stage", "Exchange", "Root", "Sink", "to_dag", "key_tuples",
           "tuple_sink", "shuffle_manager"]


def key_tuples(rows: list[dict], keys: list[str]) -> list[tuple]:
    """``tuple(row[k] for k in keys)`` of every row: the stored form of
    rows, and the key of a grouping."""
    if not keys:
        return [()] * len(rows)
    return list(zip(*[map(itemgetter(k), rows) for k in keys]))


@dataclass(eq=False)
class Root:
    """An HDFS root input: the initializer's payload (``paths`` and the
    rest), and ``decode(ctx, records) -> rows``."""

    initializer: dict
    decode: Callable
    input_payload: Optional[dict] = None    # HdfsInput's payload


@dataclass(eq=False)
class Sink:
    """An HDFS sink; ``encode(rows) -> records`` is what it commits."""

    name: str
    path: str
    encode: Callable
    record_bytes: Optional[int] = None


def tuple_sink(name: str, path: str, columns: list[str],
               record_bytes: int) -> Sink:
    """A sink committing each row as the tuple of ``columns``."""
    return Sink(name, path, lambda rows: key_tuples(rows, columns),
                record_bytes)


@dataclass(eq=False)
class Stage:
    """One vertex-to-be. ``combine(ctx, inputs) -> rows`` sees every
    decoded input by name (a root's name, or the source stage's); each
    of ``ops`` maps rows to rows; ``events(ctx, rows)`` may send
    runtime events once the rows are known."""

    name: str
    parallelism: int
    roots: dict[str, Root] = field(default_factory=dict)
    in_exchanges: list["Exchange"] = field(default_factory=list)
    combine: Optional[Callable] = None
    ops: list[Callable] = field(default_factory=list)
    sinks: list[Sink] = field(default_factory=list)
    manager: Optional[Descriptor] = None
    events: Optional[Callable] = None


@dataclass(eq=False)
class Exchange:
    """Data moving from ``src`` into the stage holding this exchange:
    ``emit(ctx, rows) -> records`` on the producer, ``decode(ctx,
    records) -> rows`` on the consumer. ``grouped`` asks for sorted,
    key-grouped delivery of a scatter-gather."""

    src: Stage
    movement: DataMovementType
    emit: Callable
    decode: Callable
    grouped: bool = False
    bytes_per_record: Optional[float] = None
    partitioner: Optional[Any] = None


def shuffle_manager(bytes_per_reducer: int,
                    auto_parallelism: bool = True) -> Descriptor:
    """The ShuffleVertexManager of a shuffle consumer that wants
    ``bytes_per_reducer`` of input per task."""
    return Descriptor(ShuffleVertexManager, ShuffleVertexManagerConfig(
        auto_parallelism=auto_parallelism,
        desired_task_input_bytes=bytes_per_reducer,
    ))


def to_dag(name: str, stages: list[Stage]) -> DAG:
    """The Tez DAG of ``stages`` (producers need not come first):
    vertices in stage order, each stage's in-edges in its order."""
    dag = DAG(name)
    targets: dict[str, list[tuple[str, Callable]]] = {
        s.name: [] for s in stages
    }
    for stage in stages:
        for exchange in stage.in_exchanges:
            targets[exchange.src.name].append((stage.name, exchange.emit))
    vertices: dict[str, Vertex] = {}
    for stage in stages:
        vertex = Vertex(
            stage.name,
            Descriptor(FnProcessor, {"fn": _task_fn(stage,
                                                    targets[stage.name])}),
            parallelism=stage.parallelism,
            vertex_manager=stage.manager,
        )
        for input_name, root in stage.roots.items():
            vertex.add_data_source(input_name, DataSourceDescriptor(
                Descriptor(HdfsInput, root.input_payload),
                Descriptor(HdfsInputInitializer, root.initializer),
            ))
        for sink in stage.sinks:
            vertex.add_data_sink(sink.name, DataSinkDescriptor(
                Descriptor(HdfsOutput, _sink_payload(sink)),
                Descriptor(HdfsOutputCommitter, _sink_payload(sink)),
            ))
        vertices[stage.name] = vertex
        dag.add_vertex(vertex)
    for stage in stages:
        for exchange in stage.in_exchanges:
            dag.add_edge(Edge(vertices[exchange.src.name],
                              vertices[stage.name],
                              _edge_property(exchange)))
    return dag


def _sink_payload(sink: Sink) -> dict:
    if sink.record_bytes is None:
        return {"path": sink.path}
    return {"path": sink.path, "record_bytes": sink.record_bytes}


def _transport(exchange: Exchange) -> tuple[type, type]:
    """The (output, input) classes that realise an exchange."""
    if exchange.movement == DataMovementType.BROADCAST:
        return BroadcastKVOutput, BroadcastKVInput
    if exchange.movement == DataMovementType.ONE_TO_ONE:
        return OneToOneOutput, OneToOneInput
    if exchange.grouped:
        return OrderedPartitionedKVOutput, OrderedGroupedKVInput
    return UnorderedPartitionedKVOutput, UnorderedKVInput


def _edge_property(exchange: Exchange) -> EdgeProperty:
    output_cls, input_cls = _transport(exchange)
    payload: dict[str, Any] = {}
    if exchange.bytes_per_record is not None:
        payload["bytes_per_record"] = exchange.bytes_per_record
    if exchange.partitioner is not None:
        payload["partitioner"] = exchange.partitioner
    return EdgeProperty(
        exchange.movement,
        output_descriptor=Descriptor(output_cls, payload or None),
        input_descriptor=Descriptor(input_cls),
    )


def _task_fn(stage: Stage, targets: list[tuple[str, Callable]]) -> Callable:
    decoders = [(n, root.decode) for n, root in stage.roots.items()] + [
        (e.src.name, e.decode) for e in stage.in_exchanges]
    combine = stage.combine
    ops = list(stage.ops)
    events = stage.events
    sinks = [(sink.name, sink.encode) for sink in stage.sinks]

    def fn(ctx, data):
        inputs: dict[str, Any] = {}
        for input_name, decode in decoders:
            inputs[input_name] = decode(ctx, data.get(input_name, []))
        rows = combine(ctx, inputs) if combine is not None else []
        for op in ops:
            rows = op(rows)
        if events is not None:
            events(ctx, rows)
        out: dict[str, list] = {}
        for target, emit in targets:
            out[target] = emit(ctx, rows)
        for sink_name, encode in sinks:
            out[sink_name] = encode(rows)
        return out

    return fn
