"""Hive → Tez compiler (paper 5.2).

Query trees translate directly to Tez DAGs: operator pipelines run
inside vertices, distributed boundaries become edges. The compiler
exploits exactly the Tez features the paper credits for Hive's gains:

* broadcast edges for map joins (with the build-side hash table cached
  in the shared object registry),
* scatter-gather edges with ShuffleVertexManager auto-parallelism for
  shuffle joins and aggregations,
* dynamic partition pruning: a collector vertex computes the surviving
  join keys at runtime and ships them to the fact scan's input
  initializer via InputInitializerEvents (paper 3.5),
* multi-vertex DAGs with no HDFS materialization between stages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Optional

from ...shuffle.sorter import sort_key
from ...tez import (
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
from ...tez.events import InputInitializerEvent
from ...tez.library import (
    BroadcastKVInput,
    BroadcastKVOutput,
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
from .aggregates import merge_aggregate_groups, partial_aggregate
from .fragments import InputLeaf, execute_fragment
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
)
from .reference import rows_from_tuples, rows_to_tuples, sort_rows

__all__ = ["TezCompiler", "HiveTezConfig"]


@dataclass
class HiveTezConfig:
    bytes_per_reducer: int = 64 * 1024 * 1024
    max_reducers: int = 64
    auto_parallelism: bool = True
    output_path: str = "/tmp/hive"
    scan_waves: int = 1


class _EdgeSpec:
    def __init__(self, src: "_VSpec", movement: DataMovementType,
                 emit: Callable, decoder: Callable,
                 bytes_per_record: float, grouped: bool):
        self.src = src
        self.movement = movement
        self.emit = emit
        self.decoder = decoder
        self.bytes_per_record = bytes_per_record
        self.grouped = grouped


class _VSpec:
    def __init__(self, name: str, parallelism: int):
        self.name = name
        self.parallelism = parallelism
        self.fragment: Optional[PlanNode] = None
        self.roots: dict[str, tuple[DataSourceDescriptor, Callable]] = {}
        self.in_edges: list[_EdgeSpec] = []
        self.sink: Optional[tuple[str, str, list[str], int]] = None
        self.events_fn: Optional[Callable] = None
        self.manager: Optional[Descriptor] = None
        self.estimated_input_bytes: float = 0.0


class TezCompiler:
    def __init__(self, catalog, config: Optional[HiveTezConfig] = None):
        self.catalog = catalog
        self.config = config or HiveTezConfig()
        self._seq = itertools.count(1)
        self._vspecs: list[_VSpec] = []

    # ------------------------------------------------------------ public
    def compile(self, plan: PlanNode, dag_name: str,
                output_path: Optional[str] = None
                ) -> tuple[DAG, list[str], str]:
        """Returns (dag, output column names, output HDFS path)."""
        self._vspecs = []
        output_path = output_path or (
            f"{self.config.output_path}/{dag_name}"
        )
        vspec, frag = self._build(plan)
        vspec.fragment = frag
        columns = plan.output_columns()
        vspec.sink = ("result", output_path, columns,
                      max(16, int(plan.estimated_row_bytes) or 16))
        dag = self._materialize(dag_name)
        return dag, columns, output_path

    # ----------------------------------------------------------- helpers
    def _new_stage(self, label: str, parallelism: int) -> _VSpec:
        vspec = _VSpec(f"{label}_{next(self._seq)}", parallelism)
        self._vspecs.append(vspec)
        return vspec

    def _reducers(self, est_bytes: float) -> int:
        return max(1, min(
            self.config.max_reducers,
            math.ceil(est_bytes / self.config.bytes_per_reducer),
        ))

    def _shuffle_manager(self) -> Descriptor:
        return Descriptor(ShuffleVertexManager, ShuffleVertexManagerConfig(
            auto_parallelism=self.config.auto_parallelism,
            desired_task_input_bytes=self.config.bytes_per_reducer,
        ))

    # -------------------------------------------------------- compilation
    def _build(self, node: PlanNode) -> tuple[_VSpec, PlanNode]:
        if isinstance(node, Scan):
            return self._build_scan(node)
        if isinstance(node, Filter):
            vspec, frag = self._build(node.child)
            return vspec, Filter(frag, node.predicate)
        if isinstance(node, Project):
            vspec, frag = self._build(node.child)
            return vspec, Project(frag, node.items)
        if isinstance(node, Join):
            return self._build_join(node)
        if isinstance(node, Aggregate):
            return self._build_aggregate(node)
        if isinstance(node, Sort):
            return self._build_sort(node, limit=None)
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._build_sort(node.child, limit=node.n)
            return self._build_limit(node)
        raise TypeError(f"cannot compile {type(node).__name__}")

    def _build_scan(self, node: Scan) -> tuple[_VSpec, PlanNode]:
        vspec = self._new_stage(f"scan_{node.alias}", parallelism=-1)
        input_name = f"src_{node.alias}"
        table = node.table
        if table.partitions:
            values = (
                node.partition_values
                if node.partition_values is not None
                else sorted(table.partitions)
            )
            paths: Any = {
                v: table.partitions[v] for v in values
            }
        else:
            paths = [table.path]
        init_payload: dict[str, Any] = {
            "paths": paths,
            "waves": self.config.scan_waves,
        }
        if node.dpp is not None and table.partitions:
            init_payload["wait_for_pruning_events"] = 1
            self._build_dpp_feeder(node, vspec.name, input_name)
        vspec.roots[input_name] = (
            DataSourceDescriptor(
                Descriptor(HdfsInput),
                Descriptor(HdfsInputInitializer, init_payload),
            ),
            _scan_decoder(node),
        )
        vspec.estimated_input_bytes = node.estimated_bytes
        return vspec, InputLeaf(input_name)

    def _build_dpp_feeder(self, scan: Scan, target_vertex: str,
                          target_input: str) -> None:
        """Dim sub-plan → single collector task → pruning event."""
        info = scan.dpp
        dim_vspec, dim_frag = self._build(info["dim_plan"])
        key_of = info["dim_key"].compile()
        collector = self._new_stage("dpp_collect", 1)

        def emit_values(ctx, rows):
            return list(zip(repeat(0), map(key_of, rows)))

        dim_vspec.fragment = dim_frag
        collector.in_edges.append(_EdgeSpec(
            dim_vspec, DataMovementType.SCATTER_GATHER,
            emit=emit_values,
            decoder=lambda ctx, data: [
                v for _k, values in data for v in values
            ],
            bytes_per_record=16,
            grouped=True,
        ))
        collector.fragment = InputLeaf(dim_vspec.name)

        def send_pruning(ctx, values,
                         _tv=target_vertex, _ti=target_input):
            ctx.send_event(InputInitializerEvent(
                target_vertex=_tv,
                target_input=_ti,
                payload={"partitions": sorted(set(values), key=sort_key)},
            ))

        collector.events_fn = send_pruning

    def _build_join(self, node: Join) -> tuple[_VSpec, PlanNode]:
        if node.strategy == Join.BROADCAST:
            probe_vspec, probe_frag = self._build(node.left)
            build_vspec, build_frag = self._build(node.right)
            build_vspec.fragment = build_frag
            leaf = InputLeaf(build_vspec.name, broadcast=True)
            probe_vspec.in_edges.append(_EdgeSpec(
                build_vspec, DataMovementType.BROADCAST,
                emit=lambda ctx, rows: list(rows),
                decoder=lambda ctx, data: list(data),
                bytes_per_record=node.right.estimated_row_bytes + 8,
                grouped=False,
            ))
            joined = Join(probe_frag, leaf, node.left_key, node.right_key,
                          node.how)
            joined.strategy = Join.BROADCAST
            joined.right_columns = node.right.output_columns()
            return probe_vspec, joined

        left_vspec, left_frag = self._build(node.left)
        right_vspec, right_frag = self._build(node.right)
        left_vspec.fragment = left_frag
        right_vspec.fragment = right_frag
        est = node.left.estimated_bytes + node.right.estimated_bytes
        join_vspec = self._new_stage("join", self._reducers(est))
        join_vspec.manager = self._shuffle_manager()
        join_vspec.estimated_input_bytes = est

        def emit_keyed(key_expr):
            key_of = key_expr.compile()

            def emit(ctx, rows):
                return list(zip(map(key_of, rows), rows))
            return emit

        flat = lambda ctx, data: list(map(itemgetter(1), data))
        join_vspec.in_edges.append(_EdgeSpec(
            left_vspec, DataMovementType.SCATTER_GATHER,
            emit=emit_keyed(node.left_key), decoder=flat,
            bytes_per_record=node.left.estimated_row_bytes + 8,
            grouped=False,
        ))
        join_vspec.in_edges.append(_EdgeSpec(
            right_vspec, DataMovementType.SCATTER_GATHER,
            emit=emit_keyed(node.right_key), decoder=flat,
            bytes_per_record=node.right.estimated_row_bytes + 8,
            grouped=False,
        ))
        joined = Join(
            InputLeaf(left_vspec.name), InputLeaf(right_vspec.name),
            node.left_key, node.right_key, node.how,
        )
        joined.right_columns = node.right.output_columns()
        return join_vspec, joined

    def _build_aggregate(self, node: Aggregate) -> tuple[_VSpec, PlanNode]:
        producer, frag = self._build(node.child)
        producer.fragment = frag
        group_items = node.group_items
        aggs = node.aggs
        est = node.estimated_bytes
        parallelism = 1 if not group_items else self._reducers(
            max(est, node.child.estimated_bytes / 4)
        )
        vspec = self._new_stage("agg", parallelism)
        if group_items:
            vspec.manager = self._shuffle_manager()
        vspec.estimated_input_bytes = est

        def emit_partial(ctx, rows, _g=group_items, _a=aggs):
            return partial_aggregate(rows, _g, _a)

        def decode_final(ctx, data, _g=group_items, _a=aggs):
            return merge_aggregate_groups(data, _g, _a,
                                          include_empty_global=True)

        vspec.in_edges.append(_EdgeSpec(
            producer, DataMovementType.SCATTER_GATHER,
            emit=emit_partial, decoder=decode_final,
            bytes_per_record=node.estimated_row_bytes + 16,
            grouped=True,
        ))
        return vspec, InputLeaf(producer.name)

    def _build_sort(self, node: Sort,
                    limit: Optional[int]) -> tuple[_VSpec, PlanNode]:
        producer, frag = self._build(node.child)
        producer.fragment = frag
        vspec = self._new_stage("sort", 1)
        vspec.estimated_input_bytes = node.estimated_bytes
        keys = node.keys

        def emit_rows(ctx, rows, _keys=keys, _limit=limit):
            # Top-N pushdown: each producer pre-sorts and truncates.
            ordered = sort_rows(rows, _keys)
            if _limit is not None:
                ordered = ordered[:_limit]
            return [(0, row) for row in ordered]

        vspec.in_edges.append(_EdgeSpec(
            producer, DataMovementType.SCATTER_GATHER,
            emit=emit_rows,
            decoder=lambda ctx, data: [row for _k, row in data],
            bytes_per_record=node.estimated_row_bytes + 8,
            grouped=False,
        ))
        frag2: PlanNode = Sort(InputLeaf(producer.name), keys)
        if limit is not None:
            frag2 = Limit(frag2, limit)
        return vspec, frag2

    def _build_limit(self, node: Limit) -> tuple[_VSpec, PlanNode]:
        producer, frag = self._build(node.child)
        producer.fragment = Limit(frag, node.n)   # local pre-truncate
        vspec = self._new_stage("limit", 1)
        vspec.estimated_input_bytes = node.estimated_bytes
        vspec.in_edges.append(_EdgeSpec(
            producer, DataMovementType.SCATTER_GATHER,
            emit=lambda ctx, rows: [(0, row) for row in rows],
            decoder=lambda ctx, data: [row for _k, row in data],
            bytes_per_record=node.estimated_row_bytes + 8,
            grouped=False,
        ))
        return vspec, Limit(InputLeaf(producer.name), node.n)

    # ------------------------------------------------------- materialize
    def _materialize(self, dag_name: str) -> DAG:
        dag = DAG(dag_name)
        vertices: dict[str, Vertex] = {}
        emits: dict[str, dict[str, Callable]] = {
            v.name: {} for v in self._vspecs
        }
        for vspec in self._vspecs:
            for espec in vspec.in_edges:
                emits[espec.src.name][vspec.name] = espec.emit
        for vspec in self._vspecs:
            fn = self._make_fn(vspec, emits[vspec.name])
            vertex = Vertex(
                vspec.name,
                Descriptor(FnProcessor, {"fn": fn}),
                parallelism=vspec.parallelism,
                vertex_manager=vspec.manager,
            )
            for input_name, (source, _decoder) in vspec.roots.items():
                vertex.add_data_source(input_name, source)
            if vspec.sink is not None:
                sink_name, path, _cols, rb = vspec.sink
                vertex.add_data_sink(sink_name, DataSinkDescriptor(
                    Descriptor(HdfsOutput,
                               {"path": path, "record_bytes": rb}),
                    Descriptor(HdfsOutputCommitter,
                               {"path": path, "record_bytes": rb}),
                ))
            vertices[vspec.name] = vertex
            dag.add_vertex(vertex)
        for vspec in self._vspecs:
            for espec in vspec.in_edges:
                dag.add_edge(Edge(
                    vertices[espec.src.name], vertices[vspec.name],
                    self._edge_property(espec),
                ))
        return dag

    def _edge_property(self, espec: _EdgeSpec) -> EdgeProperty:
        payload = {"bytes_per_record": espec.bytes_per_record}
        if espec.movement == DataMovementType.BROADCAST:
            return EdgeProperty(
                DataMovementType.BROADCAST,
                output_descriptor=Descriptor(BroadcastKVOutput, payload),
                input_descriptor=Descriptor(BroadcastKVInput),
            )
        if espec.grouped:
            return EdgeProperty(
                DataMovementType.SCATTER_GATHER,
                output_descriptor=Descriptor(
                    OrderedPartitionedKVOutput, payload
                ),
                input_descriptor=Descriptor(OrderedGroupedKVInput),
            )
        return EdgeProperty(
            DataMovementType.SCATTER_GATHER,
            output_descriptor=Descriptor(
                UnorderedPartitionedKVOutput, payload
            ),
            input_descriptor=Descriptor(UnorderedKVInput),
        )

    def _make_fn(self, vspec: _VSpec,
                 targets: dict[str, Callable]) -> Callable:
        roots = dict(vspec.roots)
        in_edges = list(vspec.in_edges)
        fragment = vspec.fragment
        events_fn = vspec.events_fn
        sink = vspec.sink

        def fn(ctx, data):
            inputs: dict[str, list] = {}
            for input_name, (_source, decoder) in roots.items():
                inputs[input_name] = decoder(ctx, data.get(input_name, []))
            for espec in in_edges:
                inputs[espec.src.name] = espec.decoder(
                    ctx, data.get(espec.src.name, [])
                )
            rows = execute_fragment(fragment, inputs, ctx)
            if events_fn is not None:
                events_fn(ctx, rows)
            out: dict[str, list] = {}
            for target_name, emit in targets.items():
                out[target_name] = emit(ctx, rows)
            if sink is not None:
                sink_name, _path, columns, _rb = sink
                out[sink_name] = rows_to_tuples(rows, columns)
            return out

        return fn


def _scan_decoder(node: Scan) -> Callable:
    alias = node.alias
    all_columns = list(node.table.columns)
    needed = list(node.needed_columns) \
        if node.needed_columns is not None else None

    def decoder(ctx, records):
        return rows_from_tuples(records, alias, all_columns, needed)

    return decoder
