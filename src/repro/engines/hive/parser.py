"""Tokenizer + recursive-descent parser for the HiveQL subset.

Grammar (case-insensitive keywords)::

    query     := SELECT [DISTINCT] items FROM table_ref join*
                 [WHERE expr] [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT int]
    join      := [INNER|LEFT [OUTER]] JOIN table_ref ON col = col
    items     := item (',' item)* | '*'
    item      := expr [AS? ident]
    expr      := or-precedence expression with NOT/IN/BETWEEN/LIKE,
                 comparisons, + - * /, unary -, function calls,
                 qualified columns, literals, parentheses
"""

from __future__ import annotations

import re
from typing import Any, Optional

from .ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    JoinClause,
    Like,
    Literal,
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)

__all__ = ["parse", "ParseError"]


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/|\(|\)|,|\.)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "join", "inner", "left", "outer", "on", "and",
    "or", "not", "in", "between", "like", "as", "asc", "desc", "is",
    "null", "case", "when", "then", "else", "end",
}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"{self.kind}:{self.value!r}"


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at {pos}")
        pos = m.end()
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            continue
        if kind == "int":
            tokens.append(_Token("number", int(text)))
        elif kind == "float":
            tokens.append(_Token("number", float(text)))
        elif kind == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif kind == "ident":
            lower = text.lower()
            if lower in _KEYWORDS:
                tokens.append(_Token("kw", lower))
            else:
                tokens.append(_Token("ident", text))
        else:
            tokens.append(_Token("op", text))
    tokens.append(_Token("eof", None))
    return tokens


class _Parser:
    def __init__(self, sql: str):
        self.tokens = _tokenize(sql)
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept_kw(self, *words: str) -> Optional[str]:
        token = self.peek()
        if token.kind == "kw" and token.value in words:
            self.next()
            return token.value
        return None

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise ParseError(f"expected {word.upper()}, got {self.peek()}")

    def accept_op(self, *ops: str) -> Optional[str]:
        token = self.peek()
        if token.kind == "op" and token.value in ops:
            self.next()
            return token.value
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise ParseError(f"expected {op!r}, got {self.peek()}")

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise ParseError(f"expected identifier, got {token}")
        return token.value

    # -- grammar ---------------------------------------------------------------
    def parse_query(self) -> Query:
        self.expect_kw("select")
        distinct = bool(self.accept_kw("distinct"))
        items = self.parse_select_items()
        self.expect_kw("from")
        table = self.parse_table_ref()
        joins = []
        while True:
            how = "inner"
            if self.accept_kw("left"):
                self.accept_kw("outer")
                how = "left"
                self.expect_kw("join")
            elif self.accept_kw("inner"):
                self.expect_kw("join")
            elif self.accept_kw("join"):
                pass
            else:
                break
            jt = self.parse_table_ref()
            self.expect_kw("on")
            left = self.parse_column_ref()
            self.expect_op("=")
            right = self.parse_column_ref()
            joins.append(JoinClause(jt, left, right, how))
        where = None
        if self.accept_kw("where"):
            where = self.parse_expr()
        group_by: list[Expr] = []
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept_kw("having"):
            having = self.parse_expr()
        order_by: list[tuple[Expr, bool]] = []
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_kw("limit"):
            token = self.next()
            if token.kind != "number" or not isinstance(token.value, int):
                raise ParseError("LIMIT requires an integer")
            limit = token.value
        if self.peek().kind != "eof":
            raise ParseError(f"trailing input at {self.peek()}")
        return Query(
            select=items, table=table, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, distinct=distinct,
        )

    def parse_select_items(self) -> list[SelectItem]:
        if self.accept_op("*"):
            return [SelectItem(Star())]
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def parse_order_item(self) -> tuple[Expr, bool]:
        expr = self.parse_expr()
        asc = True
        if self.accept_kw("desc"):
            asc = False
        else:
            self.accept_kw("asc")
        return (expr, asc)

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return TableRef(name, alias)

    def parse_column_ref(self) -> Column:
        first = self.expect_ident()
        if self.accept_op("."):
            return Column(first, self.expect_ident())
        return Column(None, first)

    # -- expressions (precedence climbing) ----------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_kw("or"):
            left = BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_kw("and"):
            left = BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_kw("not"):
            return UnaryOp("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        negated = bool(self.accept_kw("not"))
        if self.accept_kw("in"):
            self.expect_op("(")
            values = [self.parse_additive()]
            while self.accept_op(","):
                values.append(self.parse_additive())
            self.expect_op(")")
            return InList(left, values, negated=negated)
        if self.accept_kw("between"):
            low = self.parse_additive()
            self.expect_kw("and")
            high = self.parse_additive()
            return Between(left, low, high, negated=negated)
        if self.accept_kw("like"):
            token = self.next()
            if token.kind != "string":
                raise ParseError("LIKE requires a string pattern")
            return Like(left, token.value, negated=negated)
        if negated:
            raise ParseError("NOT must be followed by IN/BETWEEN/LIKE here")
        if self.accept_kw("is"):
            neg = bool(self.accept_kw("not"))
            self.expect_kw("null")
            return IsNull(left, neg)
        op = self.accept_op("=", "!=", "<>", "<=", ">=", "<", ">")
        if op:
            return BinaryOp(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = BinaryOp(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_op("*", "/")
            if not op:
                return left
            left = BinaryOp(op, left, self.parse_unary())

    def parse_unary(self) -> Expr:
        if self.accept_op("-"):
            return UnaryOp("-", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "kw" and token.value == "case":
            return self.parse_case()
        if token.kind == "number":
            self.next()
            return Literal(token.value)
        if token.kind == "string":
            self.next()
            return Literal(token.value)
        if token.kind == "kw" and token.value == "null":
            self.next()
            return Literal(None)
        if self.accept_op("("):
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind == "ident":
            name = self.expect_ident()
            if self.accept_op("("):
                distinct = bool(self.accept_kw("distinct"))
                args: list[Expr] = []
                if self.accept_op("*"):
                    args.append(Star())
                elif not (self.peek().kind == "op"
                          and self.peek().value == ")"):
                    args.append(self.parse_expr())
                    while self.accept_op(","):
                        args.append(self.parse_expr())
                self.expect_op(")")
                return FuncCall(name.lower(), args, distinct=distinct)
            if self.accept_op("."):
                return Column(name, self.expect_ident())
            return Column(None, name)
        raise ParseError(f"unexpected token {token}")

    def parse_case(self) -> Expr:
        self.expect_kw("case")
        branches = []
        while self.accept_kw("when"):
            condition = self.parse_expr()
            self.expect_kw("then")
            value = self.parse_expr()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        default = None
        if self.accept_kw("else"):
            default = self.parse_expr()
        self.expect_kw("end")
        return CaseWhen(branches, default)


def parse(sql: str) -> Query:
    """Parse one SELECT statement into a :class:`Query` AST."""
    return _Parser(sql).parse_query()
