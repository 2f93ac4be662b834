"""Hive's aggregates: SQL aggregate calls translated into the shared
kernels (``engines/relational.py``).

Each aggregate is chosen once per fragment from its name, its DISTINCT
flag and its argument - never per row. ``COUNT(*)`` counts every row,
``COUNT(col)`` skips NULLs, and DISTINCT - which Pig Latin has not -
is Hive's own kernel over the set of distinct non-NULL values.
"""

from __future__ import annotations

import operator

from ..relational import AggKernel, Aggregation, kernel
from .ast_nodes import FuncCall, Star

__all__ = ["agg_kernel", "aggregation", "sql_rows"]


def _distinct(state, value):
    if value is not None:
        state.add(value)
    return state


# name -> final over the set of distinct non-NULL values
_DISTINCT_FINAL = {
    "count": len,
    "sum": lambda s: sum(s) if s else None,
    "avg": lambda s: sum(s) / len(s) if s else None,
    "min": lambda s: min(s) if s else None,
    "max": lambda s: max(s) if s else None,
}


def agg_kernel(agg: FuncCall) -> AggKernel:
    """Resolve one aggregate call to its closures."""
    if agg.name not in _DISTINCT_FINAL:
        raise ValueError(f"unknown aggregate {agg.name!r}")
    star = not agg.args or isinstance(agg.args[0], Star)
    value_of = None if star else agg.args[0].compile()
    if agg.distinct:
        return AggKernel(agg.agg_key(), set, value_of, _distinct,
                         operator.or_, _DISTINCT_FINAL[agg.name])
    return kernel(agg.name, agg.agg_key(), value_of)


def aggregation(group_items: list, aggs: list[FuncCall]) -> Aggregation:
    """GROUP BY ``group_items`` (``(name, expr)`` pairs) computing
    ``aggs``."""
    return Aggregation([name for name, _e in group_items],
                       [expr.compile() for _n, expr in group_items],
                       [agg_kernel(a) for a in aggs])


def sql_rows(agg: Aggregation, rows: list[dict]) -> list[dict]:
    """The final rows of ``agg``: a SQL global aggregate over no rows
    still yields its one row (COUNT 0, SUM NULL)."""
    if rows or agg.names:
        return rows
    return [agg.finish((), [])]
