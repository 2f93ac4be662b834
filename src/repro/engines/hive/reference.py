"""Logical-plan operators, and the in-memory reference executor.

:func:`run_operators` evaluates a plan (sub)tree over row dicts with
plain Python: every operator resolves its expressions to closures once
(``Expr.compile``) and then touches each row once. :func:`execute_plan`
runs a whole plan directly against HDFS table data - no simulation, no
distribution - for differential testing: the Tez and MapReduce
backends, whose tasks run fragments of the same plan through the same
operators, must produce exactly these rows.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...shuffle.sorter import sort_keys
from ..relational import build_table, order_rows, probe, rows_of
from .aggregates import aggregation, sql_rows
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

__all__ = ["execute_plan", "run_operators", "scan_rows", "scan_fields",
           "run_aggregate"]


def scan_fields(scan: Scan) -> list[tuple[str, int]]:
    """``(qualified column, tuple index)`` of every column a scan reads:
    how ``relational.rows_of`` decodes the table's stored tuples."""
    columns = list(scan.table.columns)
    needed = scan.needed_columns if scan.needed_columns is not None \
        else columns
    return [(f"{scan.alias}.{c}", columns.index(c)) for c in needed]


def scan_rows(scan: Scan, hdfs) -> list[dict]:
    """Materialize a scan: qualified row dicts from HDFS tuples."""
    fields = scan_fields(scan)
    rows: list[dict] = []
    for path in scan.table.paths(scan.partition_values):
        rows.extend(rows_of(hdfs.read_file(path), fields))
    return rows


def run_aggregate(node: Aggregate, rows: list[dict]) -> list[dict]:
    """Full (non-partial) aggregation of rows."""
    agg = aggregation(node.group_items, node.aggs)
    return sql_rows(agg, agg.full(rows))


def _hash_join(node: Join, left_rows: list[dict], right_rows: list[dict],
               ctx=None) -> list[dict]:
    """Build on the right, probe with the left, in row order. Keys
    match by tagged equality, so a NULL key joins a NULL key."""
    table: Optional[dict] = None
    # Broadcast build sides are cached in the container's shared
    # object registry (paper 4.2: Hive's map-join hash table reuse).
    cache_key = None
    if ctx is not None and getattr(node.right, "broadcast", False):
        cache_key = f"hashtable:{node.right.name}:{node.node_id}"
        table = ctx.cache_get(cache_key)
    if table is None:
        table = build_table(
            sort_keys(list(map(node.right_key.compile(), right_rows))),
            right_rows)
        if cache_key is not None:
            from ...tez.registry import Scope
            ctx.cache_put(Scope.DAG, cache_key, table)
    right_columns = getattr(node, "right_columns", None)
    if right_columns is None:
        right_columns = node.right.output_columns()
    padding = dict.fromkeys(right_columns) if node.how == "left" else None
    return probe(table, sort_keys(list(map(node.left_key.compile(),
                                           left_rows))),
                 left_rows, padding)


def run_operators(node: PlanNode, leaf_rows: Callable[[PlanNode], list],
                  ctx=None) -> list[dict]:
    """Evaluate a plan (sub)tree; ``leaf_rows(node)`` supplies the rows
    of a childless node (a table scan, a task input)."""
    if not node.children:
        return leaf_rows(node)
    if isinstance(node, Join):
        return _hash_join(node, run_operators(node.left, leaf_rows, ctx),
                          run_operators(node.right, leaf_rows, ctx), ctx)
    rows = run_operators(node.child, leaf_rows, ctx)
    if isinstance(node, Filter):
        return list(filter(node.predicate.compile(), rows))
    if isinstance(node, Project):
        items = [(name, expr.compile()) for name, expr in node.items]
        return [{name: value_of(r) for name, value_of in items}
                for r in rows]
    if isinstance(node, Aggregate):
        return run_aggregate(node, rows)
    if isinstance(node, Sort):
        return order_rows(rows, node.keys)
    if isinstance(node, Limit):
        return rows[: node.n]
    raise TypeError(f"cannot execute {type(node).__name__}")


def execute_plan(node: PlanNode, hdfs) -> list[dict]:
    return run_operators(node, lambda scan: scan_rows(scan, hdfs))
