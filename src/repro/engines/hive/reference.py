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

from ...shuffle.sorter import sort_key, sort_keys
from .aggregates import merge_aggregate_groups, partial_aggregate
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

__all__ = ["execute_plan", "run_operators", "scan_rows", "run_aggregate",
           "sort_rows", "rows_from_tuples"]


def rows_from_tuples(records: list[tuple], alias: str,
                     all_columns: list[str],
                     needed_columns: Optional[list[str]]) -> list[dict]:
    """Decode raw table tuples into qualified row dicts."""
    cols = needed_columns if needed_columns is not None else all_columns
    fields = [(f"{alias}.{c}", all_columns.index(c)) for c in cols]
    rows = []
    for rec in records:
        # Not a comprehension per row: on CPython 3.11 that makes and
        # calls a function per row, and costs 40 % more than this loop.
        row = {}
        for key, i in fields:
            row[key] = rec[i]
        rows.append(row)
    return rows


def scan_rows(scan: Scan, hdfs) -> list[dict]:
    """Materialize a scan: qualified row dicts from HDFS tuples."""
    table = scan.table
    rows: list[dict] = []
    for path in table.paths(scan.partition_values):
        rows.extend(rows_from_tuples(hdfs.read_file(path), scan.alias,
                                     table.columns, scan.needed_columns))
    return rows


def run_aggregate(node: Aggregate, rows: list[dict]) -> list[dict]:
    """Full (non-partial) aggregation of rows: the grouping pass, then
    the merge of its one state per group."""
    partial = partial_aggregate(rows, node.group_items, node.aggs)
    return merge_aggregate_groups(
        [(values, [state]) for values, state in partial],
        node.group_items, node.aggs, include_empty_global=True,
    )


def sort_rows(rows: list[dict], keys: list[tuple[str, bool]]) -> list[dict]:
    out = list(rows)
    for name, asc in reversed(keys):
        out.sort(key=lambda r: sort_key(r[name]), reverse=not asc)
    return out


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
        table = {}
        build_keys = sort_keys(list(map(node.right_key.compile(),
                                        right_rows)))
        for key, row in zip(build_keys, right_rows):
            table.setdefault(key, []).append(row)
        if cache_key is not None:
            from ...tez.registry import Scope
            ctx.cache_put(Scope.DAG, cache_key, table)
    right_columns = getattr(node, "right_columns", None)
    if right_columns is None:
        right_columns = node.right.output_columns()
    padding = dict.fromkeys(right_columns) if node.how == "left" else None
    matches_of = table.get
    probe_keys = sort_keys(list(map(node.left_key.compile(), left_rows)))
    out: list[dict] = []
    for key, row in zip(probe_keys, left_rows):
        matches = matches_of(key)
        if matches:
            for match in matches:
                out.append({**row, **match})
        elif padding is not None:
            out.append({**row, **padding})
    return out


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
        return sort_rows(rows, node.keys)
    if isinstance(node, Limit):
        return rows[: node.n]
    raise TypeError(f"cannot execute {type(node).__name__}")


def execute_plan(node: PlanNode, hdfs) -> list[dict]:
    return run_operators(node, lambda scan: scan_rows(scan, hdfs))
