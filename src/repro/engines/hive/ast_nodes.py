"""Expression AST for the HiveQL subset.

Expressions evaluate against a row dict keyed by qualified column name
(``alias.column``). Name resolution happens once at planning time: the
planner sets ``Column.key`` so evaluation is a dict lookup.

There is one evaluator: ``Expr.compile()`` lowers a tree to a closure
``row -> value`` in which every operator, child and constant is
resolved already, and ``Expr.eval(row)`` is that closure applied.
Operators call ``compile()`` once per fragment and the closure once per
row (DESIGN.md "Operator kernels").
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "Expr", "Column", "Literal", "Star", "BinaryOp", "UnaryOp", "IsNull",
    "FuncCall", "InList", "Between", "Like", "AGGREGATE_FUNCS",
    "SCALAR_FUNCS", "SelectItem", "TableRef", "JoinClause", "Query",
]

RowFn = Callable[[dict], Any]

AGGREGATE_FUNCS = {"count", "sum", "avg", "min", "max"}
SCALAR_FUNCS = {
    "upper": lambda s: s.upper() if isinstance(s, str) else s,
    "lower": lambda s: s.lower() if isinstance(s, str) else s,
    "abs": lambda x: abs(x) if x is not None else None,
    "substr": lambda s, start, length=None: (
        s[start - 1: start - 1 + length] if length is not None
        else s[start - 1:]
    ) if isinstance(s, str) else s,
    "year": lambda d: int(str(d)[:4]) if d is not None else None,
    "round": lambda x, n=0: round(x, n) if x is not None else None,
    "coalesce": lambda *args: next(
        (a for a in args if a is not None), None
    ),
}


class Expr:
    _fn: Optional[RowFn] = None

    def compile(self) -> RowFn:
        """Lower this tree to ``row -> value``. The closure holds the
        children's closures and constants, never a node: a node caches
        its closure (``eval``) and must not become a cycle with it."""
        raise NotImplementedError

    def eval(self, row: dict) -> Any:
        fn = self._fn
        if fn is None:
            fn = self._fn = self.compile()
        return fn(row)

    def columns(self) -> list["Column"]:
        """All column references in this expression tree."""
        out: list[Column] = []
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: list) -> None:
        pass

    def aggregates(self) -> list["FuncCall"]:
        out: list[FuncCall] = []
        self._collect_aggs(out)
        return out

    def _collect_aggs(self, out: list) -> None:
        pass


@dataclass
class Column(Expr):
    table: Optional[str]
    name: str
    key: Optional[str] = None   # resolved qualified key, set by planner

    def compile(self) -> RowFn:
        return operator.itemgetter(
            self.key if self.key is not None else self.name)

    def _collect_columns(self, out: list) -> None:
        out.append(self)

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Literal(Expr):
    value: Any

    def compile(self) -> RowFn:
        value = self.value
        return lambda row: value


@dataclass
class Star(Expr):
    """COUNT(*) / SELECT * marker."""

    def compile(self) -> RowFn:
        return lambda row: 1


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda lv, rv: lv / rv if rv != 0 else None,
}
_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def compile(self) -> RowFn:
        op = self.op
        left, right = self.left.compile(), self.right.compile()
        if op == "and":
            return lambda row: bool(left(row)) and bool(right(row))
        if op == "or":
            return lambda row: bool(left(row)) or bool(right(row))
        # A NULL operand makes arithmetic NULL and a comparison False.
        null = None if op in _ARITHMETIC else False
        fn = _ARITHMETIC.get(op) or _COMPARISONS.get(op)
        if fn is None:
            raise ValueError(f"unknown operator {op!r}")
        if isinstance(self.right, Literal) and self.right.value is not None:
            constant = self.right.value

            def against_constant(row):
                lv = left(row)
                return null if lv is None else fn(lv, constant)

            return against_constant

        def binary(row):
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return null
            return fn(lv, rv)

        return binary

    def _collect_columns(self, out: list) -> None:
        self.left._collect_columns(out)
        self.right._collect_columns(out)

    def _collect_aggs(self, out: list) -> None:
        self.left._collect_aggs(out)
        self.right._collect_aggs(out)


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr

    def compile(self) -> RowFn:
        operand = self.operand.compile()
        if self.op == "not":
            return lambda row: not operand(row)
        if self.op == "-":
            def negate(row):
                value = operand(row)
                return -value if value is not None else None
            return negate
        raise ValueError(f"unknown unary {self.op!r}")

    def _collect_columns(self, out: list) -> None:
        self.operand._collect_columns(out)

    def _collect_aggs(self, out: list) -> None:
        self.operand._collect_aggs(out)


@dataclass
class IsNull(Expr):
    """``inner IS [NOT] NULL``: the one NULL-safe comparison."""

    inner: Expr
    negated: bool = False

    def compile(self) -> RowFn:
        inner = self.inner.compile()
        if self.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    def _collect_columns(self, out: list) -> None:
        self.inner._collect_columns(out)


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCS

    def compile(self) -> RowFn:
        if self.is_aggregate:
            # Aggregates are computed by the Aggregate operator; after
            # aggregation the value lives in the row under agg_key.
            return operator.itemgetter(self.agg_key())
        fn = SCALAR_FUNCS.get(self.name)
        if fn is None:
            raise ValueError(f"unknown function {self.name!r}")
        args = [a.compile() for a in self.args]
        if len(args) == 1:
            arg, = args
            return lambda row: fn(arg(row))
        return lambda row: fn(*[a(row) for a in args])

    def agg_key(self) -> str:
        arg = "*" if (not self.args or isinstance(self.args[0], Star)) \
            else _expr_repr(self.args[0])
        d = "distinct " if self.distinct else ""
        return f"{self.name}({d}{arg})"

    def _collect_columns(self, out: list) -> None:
        for a in self.args:
            a._collect_columns(out)

    def _collect_aggs(self, out: list) -> None:
        if self.is_aggregate:
            out.append(self)
        else:
            for a in self.args:
                a._collect_aggs(out)


@dataclass
class InList(Expr):
    expr: Expr
    values: list[Expr]
    negated: bool = False

    def compile(self) -> RowFn:
        expr, negated = self.expr.compile(), self.negated
        if all(isinstance(v, Literal) for v in self.values):
            members = frozenset(v.value for v in self.values)

            def in_constants(row):
                value = expr(row)
                return value is not None and (value in members) != negated

            return in_constants
        values = [v.compile() for v in self.values]

        def in_list(row):
            value = expr(row)
            members = {v(row) for v in values}
            return value is not None and (value in members) != negated

        return in_list

    def _collect_columns(self, out: list) -> None:
        self.expr._collect_columns(out)
        for v in self.values:
            v._collect_columns(out)


@dataclass
class Between(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def compile(self) -> RowFn:
        expr, negated = self.expr.compile(), self.negated
        low, high = self.low.compile(), self.high.compile()

        def between(row):
            # A NULL value or bound is False, negated or not - the
            # comparisons' rule (BinaryOp), not a TypeError.
            value = expr(row)
            if value is None:
                return False
            lo, hi = low(row), high(row)
            if lo is None or hi is None:
                return False
            return (lo <= value <= hi) != negated

        return between

    def _collect_columns(self, out: list) -> None:
        self.expr._collect_columns(out)
        self.low._collect_columns(out)
        self.high._collect_columns(out)


@dataclass
class CaseWhen(Expr):
    """CASE WHEN cond THEN value [...] [ELSE default] END."""

    branches: list   # [(condition Expr, value Expr), ...]
    default: Optional[Expr] = None

    def compile(self) -> RowFn:
        branches = [(c.compile(), v.compile()) for c, v in self.branches]
        default = self.default.compile() if self.default is not None \
            else None

        def case_when(row):
            for condition, value in branches:
                if condition(row):
                    return value(row)
            return default(row) if default is not None else None

        return case_when

    def _collect_columns(self, out: list) -> None:
        for condition, value in self.branches:
            condition._collect_columns(out)
            value._collect_columns(out)
        if self.default is not None:
            self.default._collect_columns(out)

    def _collect_aggs(self, out: list) -> None:
        for condition, value in self.branches:
            condition._collect_aggs(out)
            value._collect_aggs(out)
        if self.default is not None:
            self.default._collect_aggs(out)


@dataclass
class Like(Expr):
    expr: Expr
    pattern: str
    negated: bool = False

    def __post_init__(self):
        regex = re.escape(self.pattern).replace("%", ".*").replace("_", ".")
        self._re = re.compile(f"^{regex}$")

    def compile(self) -> RowFn:
        expr, match, negated = self.expr.compile(), self._re.match, \
            self.negated

        def like(row):
            value = expr(row)
            return bool(isinstance(value, str) and match(value)) != negated

        return like

    def _collect_columns(self, out: list) -> None:
        self.expr._collect_columns(out)


def _expr_repr(expr: Expr) -> str:
    if isinstance(expr, Column):
        return expr.key or expr.display()
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, BinaryOp):
        return f"({_expr_repr(expr.left)}{expr.op}{_expr_repr(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {_expr_repr(expr.operand)})"
    if isinstance(expr, FuncCall):
        inner = ",".join(_expr_repr(a) for a in expr.args)
        return f"{expr.name}({inner})"
    if isinstance(expr, Star):
        return "*"
    return repr(expr)


# ---------------------------------------------------------------- query AST
@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name
        if isinstance(self.expr, FuncCall) and self.expr.is_aggregate:
            return self.expr.agg_key()
        return _expr_repr(self.expr)


@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def label(self) -> str:
        return self.alias or self.name


@dataclass
class JoinClause:
    table: TableRef
    left: Column
    right: Column
    how: str = "inner"   # inner | left


@dataclass
class Query:
    select: list[SelectItem]
    table: TableRef
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
