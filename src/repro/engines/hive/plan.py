"""Logical query plan: operators + the AST → plan translator.

Rows flow between operators as dicts keyed by qualified column name
(``alias.column``) — or by output alias after projection/aggregation.
The same plan is consumed by three executors: the in-memory reference,
the Tez compiler and the MapReduce compiler, so correctness tests can
difference them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .ast_nodes import (
    AGGREGATE_FUNCS,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    Query,
    SelectItem,
    Star,
    UnaryOp,
    _expr_repr,
)
from .catalog import Catalog, TableMeta

__all__ = [
    "PlanNode", "Scan", "Filter", "Project", "Join", "Aggregate",
    "Sort", "Limit", "build_plan", "PlanError", "expr_key", "reducers_for",
]

# Reducer sizing, read by both compilers: one reducer per 64 MiB of
# estimated shuffle input, at most 64.
BYTES_PER_REDUCER = 64 * 1024 * 1024
MAX_REDUCERS = 64


class PlanError(ValueError):
    pass


def expr_key(expr: Expr) -> str:
    """Canonical name for an expression (used for matching/rewrite)."""
    return _expr_repr(expr)


def reducers_for(est_bytes: float) -> int:
    return max(1, min(MAX_REDUCERS, math.ceil(est_bytes / BYTES_PER_REDUCER)))


_node_ids = itertools.count(1)


class PlanNode:
    def __init__(self, children: list["PlanNode"]):
        self.children = children
        self.node_id = next(_node_ids)
        # Filled by the optimizer.
        self.estimated_rows: float = 0.0
        self.estimated_row_bytes: float = 64.0

    @property
    def estimated_bytes(self) -> float:
        return self.estimated_rows * self.estimated_row_bytes

    def output_columns(self) -> list[str]:
        raise NotImplementedError

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self!r}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class Scan(PlanNode):
    def __init__(self, table: TableMeta, alias: str):
        super().__init__([])
        self.table = table
        self.alias = alias
        self.needed_columns: Optional[list[str]] = None  # pruned set
        # Static partition pruning: surviving partition values.
        self.partition_values: Optional[list] = None
        # Dynamic partition pruning: filled by the optimizer with the
        # dimension sub-plan + the dim-side key expression.
        self.dpp: Optional[dict] = None

    def output_columns(self) -> list[str]:
        cols = self.needed_columns if self.needed_columns is not None \
            else self.table.columns
        return [f"{self.alias}.{c}" for c in cols]

    def __repr__(self):
        extra = ""
        if self.partition_values is not None:
            extra += f" partitions={self.partition_values}"
        if self.dpp:
            extra += " +dpp"
        return f"Scan({self.table.name} as {self.alias}{extra})"


class Filter(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_columns(self) -> list[str]:
        return self.child.output_columns()

    def __repr__(self):
        return f"Filter({expr_key(self.predicate)})"


class Project(PlanNode):
    def __init__(self, child: PlanNode, items: list[tuple[str, Expr]]):
        super().__init__([child])
        self.items = items

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_columns(self) -> list[str]:
        return [name for name, _e in self.items]

    def __repr__(self):
        return f"Project({', '.join(n for n, _ in self.items)})"


class Join(PlanNode):
    SHUFFLE = "shuffle"
    BROADCAST = "broadcast"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: Expr, right_key: Expr, how: str = "inner"):
        super().__init__([left, right])
        self.left_key = left_key
        self.right_key = right_key
        self.how = how
        self.strategy = Join.SHUFFLE     # set by the optimizer

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def output_columns(self) -> list[str]:
        return self.left.output_columns() + self.right.output_columns()

    def __repr__(self):
        return (
            f"Join({expr_key(self.left_key)}={expr_key(self.right_key)}, "
            f"{self.how}, {self.strategy})"
        )


class Aggregate(PlanNode):
    def __init__(self, child: PlanNode,
                 group_items: list[tuple[str, Expr]],
                 aggs: list[FuncCall]):
        super().__init__([child])
        self.group_items = group_items
        self.aggs = aggs

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_columns(self) -> list[str]:
        return [name for name, _e in self.group_items] + [
            agg.agg_key() for agg in self.aggs
        ]

    def __repr__(self):
        return (
            f"Aggregate(by=[{', '.join(n for n, _ in self.group_items)}], "
            f"aggs=[{', '.join(a.agg_key() for a in self.aggs)}])"
        )


class Sort(PlanNode):
    def __init__(self, child: PlanNode, keys: list[tuple[str, bool]]):
        """``keys`` are (output column name, ascending)."""
        super().__init__([child])
        self.keys = keys

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_columns(self) -> list[str]:
        return self.child.output_columns()

    def __repr__(self):
        return f"Sort({self.keys})"


class Limit(PlanNode):
    def __init__(self, child: PlanNode, n: int):
        super().__init__([child])
        self.n = n

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_columns(self) -> list[str]:
        return self.child.output_columns()

    def __repr__(self):
        return f"Limit({self.n})"


# ==================================================================== planner
class _Resolver:
    """Binds column references to (alias, column) → row-dict keys."""

    def __init__(self, catalog: Catalog, query: Query):
        self.tables: dict[str, TableMeta] = {}
        refs = [query.table] + [j.table for j in query.joins]
        for ref in refs:
            if ref.label in self.tables:
                raise PlanError(f"duplicate table label {ref.label!r}")
            self.tables[ref.label] = catalog.get(ref.name)

    def resolve(self, expr: Expr) -> None:
        for column in expr.columns():
            if column.key is not None:
                continue
            if column.table is not None:
                table = self.tables.get(column.table)
                if table is None:
                    raise PlanError(f"unknown table alias {column.table!r}")
                table.column_index(column.name)
                column.key = f"{column.table}.{column.name}"
            else:
                owners = [
                    label for label, t in self.tables.items()
                    if column.name in t.columns
                ]
                if not owners:
                    raise PlanError(f"unknown column {column.name!r}")
                if len(owners) > 1:
                    raise PlanError(
                        f"ambiguous column {column.name!r} "
                        f"(in {sorted(owners)})"
                    )
                column.table = owners[0]
                column.key = f"{owners[0]}.{column.name}"


def _rewrite_post_agg(expr: Expr, group_map: dict[str, str]) -> Expr:
    """After aggregation, group expressions become plain columns and
    aggregate calls read their agg_key — rewrite the tree accordingly."""
    key = expr_key(expr)
    if key in group_map:
        return Column(None, group_map[key], key=group_map[key])
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return expr  # FuncCall.eval reads row[agg_key()]
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _rewrite_post_agg(expr.left, group_map),
            _rewrite_post_agg(expr.right, group_map),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite_post_agg(expr.operand, group_map))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            [_rewrite_post_agg(a, group_map) for a in expr.args],
            expr.distinct,
        )
    if isinstance(expr, (Literal, Star)):
        return expr
    if isinstance(expr, Column):
        return expr
    if isinstance(expr, InList):
        return InList(
            _rewrite_post_agg(expr.expr, group_map),
            expr.values, expr.negated,
        )
    if isinstance(expr, Between):
        return Between(
            _rewrite_post_agg(expr.expr, group_map),
            expr.low, expr.high, expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            _rewrite_post_agg(expr.expr, group_map),
            expr.pattern, expr.negated,
        )
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            [
                (_rewrite_post_agg(c, group_map),
                 _rewrite_post_agg(v, group_map))
                for c, v in expr.branches
            ],
            _rewrite_post_agg(expr.default, group_map)
            if expr.default is not None else None,
        )
    return expr


def build_plan(catalog: Catalog, query: Query) -> PlanNode:
    """AST → unoptimized logical plan."""
    resolver = _Resolver(catalog, query)

    # Resolve every expression in the query.
    star_select = (
        len(query.select) == 1 and isinstance(query.select[0].expr, Star)
    )
    if star_select:
        items: list[SelectItem] = []
        for label, table in resolver.tables.items():
            for col in table.columns:
                items.append(SelectItem(
                    Column(label, col, key=f"{label}.{col}"),
                    alias=f"{label}.{col}" if len(resolver.tables) > 1
                    else col,
                ))
        query = Query(
            select=items, table=query.table, joins=query.joins,
            where=query.where, group_by=query.group_by,
            having=query.having, order_by=query.order_by,
            limit=query.limit, distinct=query.distinct,
        )
    for item in query.select:
        resolver.resolve(item.expr)
    for clause in query.joins:
        resolver.resolve(clause.left)
        resolver.resolve(clause.right)
    if query.where is not None:
        resolver.resolve(query.where)
    for expr in query.group_by:
        resolver.resolve(expr)
    if query.having is not None:
        resolver.resolve(query.having)
    select_aliases = {
        item.alias for item in query.select if item.alias
    } | {item.output_name() for item in query.select}
    for expr, _asc in query.order_by:
        # A bare column matching a select alias refers to the output
        # column, not a table column — leave it unresolved.
        if isinstance(expr, Column) and expr.table is None \
                and expr.name in select_aliases:
            continue
        resolver.resolve(expr)

    # FROM + JOINs (left-deep; the optimizer may rearrange strategy).
    node: PlanNode = Scan(resolver.tables[query.table.label],
                          query.table.label)
    built_labels = {query.table.label}
    for clause in query.joins:
        right: PlanNode = Scan(resolver.tables[clause.table.label],
                               clause.table.label)
        # Orient the keys: left key must come from the already-built
        # side of the tree.
        lk, rk = clause.left, clause.right
        if lk.table == clause.table.label:
            lk, rk = rk, lk
        if lk.table not in built_labels:
            raise PlanError(
                f"join key {lk.display()} does not reference a "
                "previously joined table"
            )
        node = Join(node, right, lk, rk, clause.how)
        built_labels.add(clause.table.label)

    if query.where is not None:
        node = Filter(node, query.where)

    # Aggregation.
    select_aggs: list[FuncCall] = []
    for item in query.select:
        select_aggs.extend(item.expr.aggregates())
    having_aggs = query.having.aggregates() if query.having else []
    order_aggs: list[FuncCall] = []
    for expr, _asc in query.order_by:
        order_aggs.extend(expr.aggregates())
    need_agg = bool(query.group_by) or bool(select_aggs) \
        or bool(having_aggs)

    select_items = list(query.select)
    having = query.having
    order_by = list(query.order_by)

    if need_agg:
        group_items: list[tuple[str, Expr]] = []
        group_map: dict[str, str] = {}
        for expr in query.group_by:
            key = expr_key(expr)
            if isinstance(expr, Column):
                name = expr.key
            else:
                name = key
            group_items.append((name, expr))
            group_map[key] = name
        # Deduplicate aggregates by agg_key.
        aggs: dict[str, FuncCall] = {}
        for agg in select_aggs + having_aggs + order_aggs:
            aggs[agg.agg_key()] = agg
        node = Aggregate(node, group_items, list(aggs.values()))
        # Rewrite downstream expressions against the aggregate output,
        # keeping the user-visible output names stable.
        select_items = [
            SelectItem(
                _rewrite_post_agg(item.expr, group_map),
                item.alias or item.output_name(),
            )
            for item in query.select
        ]
        if having is not None:
            having = _rewrite_post_agg(having, group_map)
        order_by = [
            (_rewrite_post_agg(expr, group_map), asc)
            for expr, asc in order_by
        ]
        if having is not None:
            node = Filter(node, having)
    elif having is not None:
        raise PlanError("HAVING requires GROUP BY or aggregates")

    # Projection (+ hidden columns for ORDER BY expressions that are
    # not in the select list).
    out_names: list[str] = []
    proj_items: list[tuple[str, Expr]] = []
    select_map: dict[str, str] = {}
    for item in select_items:
        name = item.output_name()
        if name in out_names:
            raise PlanError(f"duplicate output column {name!r}")
        out_names.append(name)
        proj_items.append((name, item.expr))
        select_map[expr_key(item.expr)] = name
        select_map[name] = name
        if item.alias:
            select_map[item.alias] = name

    sort_keys: list[tuple[str, bool]] = []
    hidden = 0
    for expr, asc in order_by:
        key = expr_key(expr)
        if key in select_map:
            sort_keys.append((select_map[key], asc))
        elif isinstance(expr, Column) and expr.name in select_map:
            sort_keys.append((select_map[expr.name], asc))
        else:
            hidden_name = f"__sort{hidden}"
            hidden += 1
            proj_items.append((hidden_name, expr))
            sort_keys.append((hidden_name, asc))

    node = Project(node, proj_items)

    if query.distinct:
        node = Aggregate(
            node,
            [(name, Column(None, name, key=name))
             for name, _e in proj_items],
            [],
        )

    if sort_keys:
        node = Sort(node, sort_keys)
    if query.limit is not None:
        node = Limit(node, query.limit)
    if hidden:
        # Drop hidden sort columns with a final projection.
        node = Project(node, [
            (name, Column(None, name, key=name)) for name in out_names
        ])
    return node
