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
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Optional

from ...shuffle.sorter import sort_key
from ...tez import DAG, DataMovementType
from ...tez.events import InputInitializerEvent
from ..lowering import (
    Exchange,
    Root,
    Stage,
    shuffle_manager,
    to_dag,
    tuple_sink,
)
from ..relational import order_rows, rows_of
from .aggregates import aggregation, sql_rows
from .fragments import InputLeaf, execute_fragment
from .plan import (
    BYTES_PER_REDUCER,
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    reducers_for,
)
from .reference import scan_fields

__all__ = ["TezCompiler"]


class TezCompiler:
    def __init__(self, catalog):
        self.catalog = catalog
        self._seq = itertools.count(1)
        self._stages: list[Stage] = []

    # ------------------------------------------------------------ public
    def compile(self, plan: PlanNode, dag_name: str,
                output_path: Optional[str] = None
                ) -> tuple[DAG, list[str], str]:
        """Returns (dag, output column names, output HDFS path)."""
        self._stages = []
        output_path = output_path or f"/tmp/hive/{dag_name}"
        stage, frag = self._build(plan)
        stage.combine = _run(frag)
        columns = plan.output_columns()
        stage.sinks.append(tuple_sink(
            "result", output_path, columns,
            max(16, int(plan.estimated_row_bytes) or 16)))
        return to_dag(dag_name, self._stages), columns, output_path

    # ----------------------------------------------------------- helpers
    def _new_stage(self, label: str, parallelism: int) -> Stage:
        stage = Stage(f"{label}_{next(self._seq)}", parallelism)
        self._stages.append(stage)
        return stage

    # -------------------------------------------------------- compilation
    def _build(self, node: PlanNode) -> tuple[Stage, PlanNode]:
        if isinstance(node, Scan):
            return self._build_scan(node)
        if isinstance(node, Filter):
            stage, frag = self._build(node.child)
            return stage, Filter(frag, node.predicate)
        if isinstance(node, Project):
            stage, frag = self._build(node.child)
            return stage, Project(frag, node.items)
        if isinstance(node, Join):
            return self._build_join(node)
        if isinstance(node, Aggregate):
            return self._build_aggregate(node)
        if isinstance(node, Sort):
            return self._build_sort(node, node.keys, limit=None)
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._build_sort(node.child, node.child.keys,
                                        limit=node.n)
            return self._build_sort(node, [], limit=node.n)
        raise TypeError(f"cannot compile {type(node).__name__}")

    def _build_scan(self, node: Scan) -> tuple[Stage, PlanNode]:
        stage = self._new_stage(f"scan_{node.alias}", parallelism=-1)
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
            "waves": 1,
        }
        if node.dpp is not None and table.partitions:
            init_payload["wait_for_pruning_events"] = 1
            self._build_dpp_feeder(node, stage.name, input_name)
        stage.roots[input_name] = Root(init_payload, _scan_decoder(node))
        return stage, InputLeaf(input_name)

    def _build_dpp_feeder(self, scan: Scan, target_vertex: str,
                          target_input: str) -> None:
        """Dim sub-plan → single collector task → pruning event."""
        info = scan.dpp
        dim_stage, dim_frag = self._build(info["dim_plan"])
        key_of = info["dim_key"].compile()
        collector = self._new_stage("dpp_collect", 1)

        def emit_values(ctx, rows):
            return list(zip(repeat(0), map(key_of, rows)))

        dim_stage.combine = _run(dim_frag)
        collector.in_exchanges.append(Exchange(
            dim_stage, DataMovementType.SCATTER_GATHER,
            emit=emit_values,
            decode=lambda ctx, data: [
                v for _k, values in data for v in values
            ],
            grouped=True,
            bytes_per_record=16,
        ))
        collector.combine = _run(InputLeaf(dim_stage.name))

        def send_pruning(ctx, values,
                         _tv=target_vertex, _ti=target_input):
            ctx.send_event(InputInitializerEvent(
                target_vertex=_tv,
                target_input=_ti,
                payload={"partitions": sorted(set(values), key=sort_key)},
            ))

        collector.events = send_pruning

    def _build_join(self, node: Join) -> tuple[Stage, PlanNode]:
        if node.strategy == Join.BROADCAST:
            probe_stage, probe_frag = self._build(node.left)
            build_stage, build_frag = self._build(node.right)
            build_stage.combine = _run(build_frag)
            leaf = InputLeaf(build_stage.name, broadcast=True)
            probe_stage.in_exchanges.append(Exchange(
                build_stage, DataMovementType.BROADCAST,
                emit=lambda ctx, rows: list(rows),
                decode=lambda ctx, data: list(data),
                bytes_per_record=node.right.estimated_row_bytes + 8,
            ))
            joined = Join(probe_frag, leaf, node.left_key, node.right_key,
                          node.how)
            joined.strategy = Join.BROADCAST
            joined.right_columns = node.right.output_columns()
            return probe_stage, joined

        left_stage, left_frag = self._build(node.left)
        right_stage, right_frag = self._build(node.right)
        left_stage.combine = _run(left_frag)
        right_stage.combine = _run(right_frag)
        est = node.left.estimated_bytes + node.right.estimated_bytes
        join_stage = self._new_stage("join", reducers_for(est))
        join_stage.manager = shuffle_manager(BYTES_PER_REDUCER)

        def emit_keyed(key_expr):
            key_of = key_expr.compile()

            def emit(ctx, rows):
                return list(zip(map(key_of, rows), rows))
            return emit

        flat = lambda ctx, data: list(map(itemgetter(1), data))
        join_stage.in_exchanges.append(Exchange(
            left_stage, DataMovementType.SCATTER_GATHER,
            emit=emit_keyed(node.left_key), decode=flat,
            bytes_per_record=node.left.estimated_row_bytes + 8,
        ))
        join_stage.in_exchanges.append(Exchange(
            right_stage, DataMovementType.SCATTER_GATHER,
            emit=emit_keyed(node.right_key), decode=flat,
            bytes_per_record=node.right.estimated_row_bytes + 8,
        ))
        joined = Join(
            InputLeaf(left_stage.name), InputLeaf(right_stage.name),
            node.left_key, node.right_key, node.how,
        )
        joined.right_columns = node.right.output_columns()
        return join_stage, joined

    def _build_aggregate(self, node: Aggregate) -> tuple[Stage, PlanNode]:
        producer, frag = self._build(node.child)
        producer.combine = _run(frag)
        group_items = node.group_items
        aggs = node.aggs
        est = node.estimated_bytes
        parallelism = 1 if not group_items else reducers_for(
            max(est, node.child.estimated_bytes / 4)
        )
        stage = self._new_stage("agg", parallelism)
        if group_items:
            stage.manager = shuffle_manager(BYTES_PER_REDUCER)
        agg = aggregation(group_items, aggs)
        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER,
            emit=lambda ctx, rows: agg.partial(rows),
            decode=lambda ctx, data: sql_rows(agg, agg.merge_groups(data)),
            grouped=True,
            bytes_per_record=node.estimated_row_bytes + 16,
        ))
        return stage, InputLeaf(producer.name)

    def _build_sort(self, node: PlanNode, keys: list[tuple[str, bool]],
                    limit: Optional[int]) -> tuple[Stage, PlanNode]:
        """ORDER BY ``keys`` of ``node`` (a Sort), LIMIT ``limit``: one
        task merges the producers' top rows. A LIMIT without ORDER BY
        is ``node`` itself with no keys."""
        producer, frag = self._build(node.child)
        producer.combine = _run(frag)
        stage = self._new_stage(
            "sort" if isinstance(node, Sort) else "limit", 1)

        def emit_rows(ctx, rows, _keys=keys, _limit=limit):
            # Top-N pushdown: each producer pre-sorts and truncates.
            ordered = order_rows(rows, _keys)
            if _limit is not None:
                ordered = ordered[:_limit]
            return [(0, row) for row in ordered]

        stage.in_exchanges.append(Exchange(
            producer, DataMovementType.SCATTER_GATHER,
            emit=emit_rows,
            decode=lambda ctx, data: [row for _k, row in data],
            bytes_per_record=node.estimated_row_bytes + 8,
        ))
        frag2: PlanNode = Sort(InputLeaf(producer.name), keys)
        if limit is not None:
            frag2 = Limit(frag2, limit)
        return stage, frag2


def _run(fragment: PlanNode) -> Callable:
    """A stage's combine: its plan fragment over the decoded inputs."""
    def combine(ctx, inputs):
        return execute_fragment(fragment, inputs, ctx)
    return combine


def _scan_decoder(node: Scan) -> Callable:
    fields = scan_fields(node)

    def decoder(ctx, records):
        return rows_of(records, fields)

    return decoder
