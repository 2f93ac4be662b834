"""Generated expressions and aggregations against a frozen interpreter.

The engines lower every expression to a closure once per fragment
(``Expr.compile``) and choose every aggregate's closures once
(``aggregates.agg_kernel``, Pig's ``(func, field)`` translation, both
onto ``engines/relational.py``). What they replaced - a
tree-walking ``eval`` per node type and ``agg_update`` / ``agg_step``
ladders over the aggregate's name, paid per row - is kept here verbatim
as ``_FrozenEval``, ``_FrozenPartialAggregate``, ``_FrozenRunAggregate``,
``_FrozenMergeGroups`` and Pig's ``_FrozenPartialStates`` /
``_FrozenApplyAggregate``, and Hypothesis compares the shipped kernels
with them on generated trees and rows: the same value *and type* (or
the same exception type) per expression, the same groups in the same
order with the same states bit for bit (``float.hex``) per aggregation.

Two deliberate differences, by name (the frozen side raises
``_FixedByThisPR`` where the parent was wrong, and the example is
skipped):

* **NULL bound of BETWEEN** - ``x BETWEEN NULL AND 5`` raised
  ``TypeError`` out of a task; a NULL bound is now False, negated or
  not. To see a NULL bound both bounds are read before comparing, so the
  frozen ``Between`` reads them up front too (the parent read the high
  bound only when the low comparison held).
* **NULL value of IN** - ``NULL IN (1, NULL)`` was True while
  ``NULL = NULL`` is False; a NULL value is now False, negated or not.

Hand mutations of the shipped kernels each of these tests catches
(tried one at a time, each fails within the default example budget):

* group by the raw value instead of the tagged one (``True`` joins
  ``1``) - ``test_hive_grouping_matches_frozen`` and the Pig twin;
* ``count(expr)`` counting NULLs - ``test_hive_grouping_matches_frozen``;
* ``sum`` starting at 0 instead of NULL (an all-NULL group sums to 0,
  and ``0 + -0.0`` loses the sign) - both grouping tests;
* states updated right-to-left (rows folded in reverse: float sums move
  in the last bit, first-seen group values change) - both grouping tests;
* ``InList`` member set built from the first row only -
  ``test_compiled_rows_share_nothing``;
* partial states merged in any order but left to right -
  ``test_partial_states_merge_left_to_right``;
* the literal-comparison closure taken for a NULL literal
  (``x < NULL`` raising instead of False) -
  ``test_compiled_equals_frozen_eval``;
* ``and`` / ``or`` returning the operand instead of a bool, ``not``
  of NULL, ``/`` by zero, ``Like`` treating ``.`` as a wildcard - the
  same test, by value-and-type.
"""

import enum
import re
from types import SimpleNamespace

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.engines.hive.aggregates import aggregation, sql_rows
from repro.engines.hive.ast_nodes import (
    AGGREGATE_FUNCS,
    SCALAR_FUNCS,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
)
from repro.engines.hive.fragments import InputLeaf
from repro.engines.hive.plan import Aggregate
from repro.engines.hive.reference import run_aggregate
from repro.engines.pig.reference import aggregation as pig_aggregation
from repro.shuffle.sorter import sort_key


# The shipped kernels (engines/relational.py, reached through each
# front-end's translation) in the call shapes of the per-engine copies
# they replaced, so every comparison below reads as it did.
def partial_aggregate(rows, group_items, aggs):
    return aggregation(group_items, aggs).partial(rows)


def merge_aggregate_groups(grouped, group_items, aggs, empty_global=False):
    agg = aggregation(group_items, aggs)
    rows = agg.merge_groups(grouped)
    return sql_rows(agg, rows) if empty_global else rows


pig = SimpleNamespace(
    state_merger=lambda aggs: pig_aggregation([], aggs).merge,
    partial_aggregate_states=lambda rows, keys, aggs:
        pig_aggregation(keys, aggs).partial(rows),
    apply_aggregate=lambda rows, keys, aggs:
        pig_aggregation(keys, aggs).full(rows),
)


class _FixedByThisPR(Exception):
    """The frozen interpreter reached one of the two fixed bugs."""


# ================================================= the parent's evaluator
class _FrozenEval:
    """``Expr.eval`` of every node type as the parent commit had it:
    one tree walk per row, operators told apart by string compares.
    ``self.child.eval(row)`` reads ``ev(self.child, row)`` here; nothing
    else changed, except the two marked lines."""

    @staticmethod
    def column(self, row):
        return row[self.key if self.key is not None else self.name]

    @staticmethod
    def literal(self, row):
        return self.value

    @staticmethod
    def star(self, row):
        return 1

    @staticmethod
    def binary_op(self, row):
        op = self.op
        if op == "and":
            return bool(ev(self.left, row)) and bool(ev(self.right, row))
        if op == "or":
            return bool(ev(self.left, row)) or bool(ev(self.right, row))
        lv = ev(self.left, row)
        rv = ev(self.right, row)
        if lv is None or rv is None:
            return None if op in ("+", "-", "*", "/") else False
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            return lv / rv if rv != 0 else None
        if op == "=":
            return lv == rv
        if op in ("!=", "<>"):
            return lv != rv
        if op == "<":
            return lv < rv
        if op == "<=":
            return lv <= rv
        if op == ">":
            return lv > rv
        if op == ">=":
            return lv >= rv
        raise ValueError(f"unknown operator {op!r}")

    @staticmethod
    def unary_op(self, row):
        value = ev(self.operand, row)
        if self.op == "not":
            return not bool(value)
        if self.op == "-":
            return -value if value is not None else None
        raise ValueError(f"unknown unary {self.op!r}")

    @staticmethod
    def is_null(self, row):
        # The parser's local `_IsNull` class.
        result = ev(self.inner, row) is None
        return (not result) if self.negated else result

    @staticmethod
    def func_call(self, row):
        if self.name in AGGREGATE_FUNCS:
            return row[self.agg_key()]
        fn = SCALAR_FUNCS.get(self.name)
        if fn is None:
            raise ValueError(f"unknown function {self.name!r}")
        return fn(*(ev(a, row) for a in self.args))

    @staticmethod
    def in_list(self, row):
        value = ev(self.expr, row)
        members = {ev(v, row) for v in self.values}
        if value is None:
            raise _FixedByThisPR("NULL value of IN")        # marked
        result = value in members
        return (not result) if self.negated else result

    @staticmethod
    def between(self, row):
        value = ev(self.expr, row)
        if value is None:
            return False
        low, high = ev(self.low, row), ev(self.high, row)   # marked
        if low is None or high is None:
            raise _FixedByThisPR("NULL bound of BETWEEN")   # marked
        result = low <= value <= high
        return (not result) if self.negated else result

    @staticmethod
    def case_when(self, row):
        for condition, value in self.branches:
            if ev(condition, row):
                return ev(value, row)
        return ev(self.default, row) if self.default is not None else None

    @staticmethod
    def like(self, row):
        value = ev(self.expr, row)
        result = bool(
            isinstance(value, str) and self._re.match(value)
        )
        return (not result) if self.negated else result


_FROZEN = {
    Column: _FrozenEval.column, Literal: _FrozenEval.literal,
    Star: _FrozenEval.star, BinaryOp: _FrozenEval.binary_op,
    UnaryOp: _FrozenEval.unary_op, IsNull: _FrozenEval.is_null,
    FuncCall: _FrozenEval.func_call, InList: _FrozenEval.in_list,
    Between: _FrozenEval.between, CaseWhen: _FrozenEval.case_when,
    Like: _FrozenEval.like,
}


def ev(expr: Expr, row: dict):
    return _FROZEN[type(expr)](expr, row)


# ========================================== the parent's Hive aggregation
def _frozen_agg_input(agg, row):
    if not agg.args or isinstance(agg.args[0], Star):
        return 1
    return ev(agg.args[0], row)


def _frozen_agg_init(agg):
    if agg.distinct:
        return set()
    name = agg.name
    if name == "count":
        return 0
    if name == "sum":
        return None
    if name == "avg":
        return (0.0, 0)
    if name in ("min", "max"):
        return None
    raise ValueError(f"unknown aggregate {name!r}")


def _frozen_agg_update(agg, state, value):
    if agg.distinct:
        if value is not None:
            state.add(value)
        return state
    name = agg.name
    if name == "count":
        is_star = not agg.args or isinstance(agg.args[0], Star)
        return state + (1 if is_star or value is not None else 0)
    if value is None:
        return state
    if name == "sum":
        return value if state is None else state + value
    if name == "avg":
        total, count = state
        return (total + value, count + 1)
    if name == "min":
        return value if state is None or value < state else state
    if name == "max":
        return value if state is None or value > state else state
    raise ValueError(f"unknown aggregate {name!r}")


def _frozen_agg_merge(agg, a, b):
    if agg.distinct:
        return a | b
    name = agg.name
    if name == "count":
        return a + b
    if name == "sum":
        if a is None:
            return b
        if b is None:
            return a
        return a + b
    if name == "avg":
        return (a[0] + b[0], a[1] + b[1])
    if name == "min":
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)
    if name == "max":
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)
    raise ValueError(f"unknown aggregate {name!r}")


def _frozen_agg_final(agg, state):
    if agg.distinct:
        n = len(state)
        name = agg.name
        if name == "count":
            return n
        if name == "sum":
            return sum(state) if state else None
        if name == "avg":
            return sum(state) / n if n else None
        if name == "min":
            return min(state) if state else None
        if name == "max":
            return max(state) if state else None
        raise ValueError(f"unknown aggregate {name!r}")
    if agg.name == "avg":
        total, count = state
        return total / count if count else None
    return state


def _FrozenPartialAggregate(rows, group_items, aggs):
    groups = {}
    raw_keys = {}
    for row in rows:
        values = tuple(ev(expr, row) for _n, expr in group_items)
        key = tuple(sort_key(v) for v in values)
        state = groups.get(key)
        if state is None:
            state = [_frozen_agg_init(a) for a in aggs]
            groups[key] = state
            raw_keys[key] = values
        for i, agg in enumerate(aggs):
            state[i] = _frozen_agg_update(
                agg, state[i], _frozen_agg_input(agg, row))
    return [
        (raw_keys[key], tuple(state)) for key, state in groups.items()
    ]


def _FrozenRunAggregate(node, rows):
    groups = {}
    group_values = {}
    for row in rows:
        key_vals = tuple(ev(e, row) for _n, e in node.group_items)
        key = tuple(sort_key(v) for v in key_vals)
        state = groups.get(key)
        if state is None:
            state = [_frozen_agg_init(a) for a in node.aggs]
            groups[key] = state
            group_values[key] = key_vals
        for i, agg in enumerate(node.aggs):
            state[i] = _frozen_agg_update(
                agg, state[i], _frozen_agg_input(agg, row))
    if not groups and not node.group_items:
        # Global aggregate over empty input still yields one row.
        groups[()] = [_frozen_agg_init(a) for a in node.aggs]
        group_values[()] = ()
    out = []
    for key, state in groups.items():
        row = {
            name: value
            for (name, _e), value in zip(node.group_items,
                                         group_values[key])
        }
        for agg, s in zip(node.aggs, state):
            row[agg.agg_key()] = _frozen_agg_final(agg, s)
        out.append(row)
    return out


def _FrozenMergeGroups(grouped, group_items, aggs,
                       include_empty_global=False):
    out = []
    seen_any = False
    for values, states in grouped:
        seen_any = True
        merged = None
        for state in states:
            if merged is None:
                merged = list(state)
            else:
                merged = [
                    _frozen_agg_merge(a, m, s)
                    for a, m, s in zip(aggs, merged, state)
                ]
        row = {name: v for (name, _e), v in zip(group_items, values)}
        for agg, state in zip(aggs, merged or
                              [_frozen_agg_init(a) for a in aggs]):
            row[agg.agg_key()] = _frozen_agg_final(agg, state)
        out.append(row)
    if not seen_any and include_empty_global and not group_items:
        row = {}
        for agg in aggs:
            row[agg.agg_key()] = _frozen_agg_final(agg,
                                                   _frozen_agg_init(agg))
        out.append(row)
    return out


# =========================================== the parent's Pig aggregation
_FROZEN_PIG_INIT = {
    "count": lambda: 0,
    "sum": lambda: None,
    "avg": lambda: (0.0, 0),
    "min": lambda: None,
    "max": lambda: None,
}


def _frozen_agg_step(func, state, value):
    if func == "count":
        return state + 1
    if value is None:
        return state
    if func == "sum":
        return value if state is None else state + value
    if func == "avg":
        return (state[0] + value, state[1] + 1)
    if func == "min":
        return value if state is None or value < state else state
    if func == "max":
        return value if state is None or value > state else state
    raise ValueError(func)


def _frozen_agg_result(func, state):
    if func == "avg":
        total, n = state
        return total / n if n else None
    return state


def _FrozenPartialStates(rows, keys, aggs):
    groups = {}
    raw = {}
    agg_items = list(aggs.items())
    for row in rows:
        values = tuple(row[k] for k in keys)
        gkey = tuple(sort_key(v) for v in values)
        state = groups.get(gkey)
        if state is None:
            state = [_FROZEN_PIG_INIT[f]() for _o, (f, _c) in agg_items]
            groups[gkey] = state
            raw[gkey] = values
        for i, (_out, (func, field)) in enumerate(agg_items):
            value = 1 if field is None else row[field]
            state[i] = _frozen_agg_step(func, state[i], value)
    return [(raw[g], tuple(state)) for g, state in groups.items()]


def _FrozenApplyAggregate(rows, keys, aggs):
    groups = {}
    raw = {}
    for row in rows:
        values = tuple(row[k] for k in keys)
        gkey = tuple(sort_key(v) for v in values)
        state = groups.get(gkey)
        if state is None:
            state = {out: _FROZEN_PIG_INIT[f]()
                     for out, (f, _c) in aggs.items()}
            groups[gkey] = state
            raw[gkey] = values
        for out, (func, field) in aggs.items():
            value = 1 if field is None else row[field]
            state[out] = _frozen_agg_step(func, state[out], value)
    out_rows = []
    for gkey, state in groups.items():
        row = dict(zip(keys, raw[gkey]))
        for out, (func, _f) in aggs.items():
            row[out] = _frozen_agg_result(func, state[out])
        out_rows.append(row)
    return out_rows


# ============================================================== generators
class _Level(enum.IntEnum):
    """A subclass value: tagged "num" through the MRO walk, so
    ``_Level.ONE`` groups with ``1`` and ``1.0`` and not with ``True``."""
    ONE = 1
    TWO = 2


_NAN = float("nan")
_ints = st.integers(-3, 3)
_floats = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.5, 0.1, 1e16, _NAN])
_strs = st.sampled_from(["", "a", "ab", "a.b", "1995", "x%"])
_values = st.one_of(st.none(), st.booleans(), _ints, _floats, _strs)

COLUMNS = ["t.a", "t.b", "t.c", "t.s"]
POST_AGG = [FuncCall("sum", [Column("t", "a", key="t.a")]),
            FuncCall("count", [Star()]),
            FuncCall("count", [Column("t", "b", key="t.b")], distinct=True)]
_rows = st.fixed_dictionaries({
    **{name: _values for name in COLUMNS},
    "t.s": st.one_of(st.none(), _strs),
    **{agg.agg_key(): st.one_of(st.none(), _ints, _floats)
       for agg in POST_AGG},
})

_leaves = st.one_of(
    st.sampled_from(COLUMNS).map(
        lambda key: Column("t", key.split(".")[1], key=key)),
    st.just(Column(None, "t.a")),              # unresolved: read by name
    _values.map(Literal),
    st.just(Star()),
    st.sampled_from(POST_AGG),
)
_BINARY_OPS = ["and", "or", "+", "-", "*", "/", "=", "!=", "<>",
               "<", "<=", ">", ">="]
_patterns = st.text("ab%_.*[(\\", max_size=4)


def _nodes(inner):
    literals = st.lists(_values.map(Literal), min_size=1, max_size=3)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(_BINARY_OPS), inner, inner),
        st.builds(UnaryOp, st.sampled_from(["not", "-"]), inner),
        st.builds(IsNull, inner, st.booleans()),
        st.builds(lambda name, arg: FuncCall(name, [arg]),
                  st.sampled_from(["upper", "lower", "abs", "year",
                                   "round", "coalesce"]), inner),
        st.builds(lambda s, start, length: FuncCall(
            "substr", [s, Literal(start)] + (
                [] if length is None else [Literal(length)])),
            inner, st.integers(1, 3), st.one_of(st.none(),
                                                st.integers(0, 2))),
        st.builds(lambda x, n: FuncCall("round", [x, Literal(n)]),
                  inner, st.integers(0, 2)),
        st.builds(lambda args: FuncCall("coalesce", args),
                  st.lists(inner, min_size=2, max_size=3)),
        st.builds(InList, inner, literals, st.booleans()),
        st.builds(InList, inner, st.lists(inner, min_size=1, max_size=3),
                  st.booleans()),
        st.builds(Between, inner, inner, inner, st.booleans()),
        st.builds(Between, inner, _ints.map(Literal), _ints.map(Literal),
                  st.booleans()),
        st.builds(CaseWhen,
                  st.lists(st.tuples(inner, inner), min_size=1,
                           max_size=2),
                  st.one_of(st.none(), inner)),
        st.builds(Like, inner, _patterns, st.booleans()),
    )


_exprs = st.recursive(_leaves, _nodes, max_leaves=8)


def _outcome(fn):
    """("value", type, repr) - repr tells 0.0 from -0.0 and takes one
    NaN for another - or ("raises", exception type)."""
    try:
        value = fn()
    except _FixedByThisPR:
        raise
    except Exception as exc:                    # noqa: BLE001 - compared
        return ("raises", type(exc))
    return ("value", type(value), repr(value))


@given(expr=_exprs, rows=st.lists(_rows, min_size=1, max_size=3))
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_equals_frozen_eval(expr, rows):
    for row in rows:
        try:
            want = _outcome(lambda: ev(expr, row))
        except _FixedByThisPR:
            assume(False)
        assert _outcome(lambda: expr.compile()(row)) == want, (expr, row)
        # `eval` is the same closure, kept on the node.
        assert _outcome(lambda: expr.eval(row)) == want, (expr, row)


@given(expr=_exprs, rows=st.lists(_rows, min_size=2, max_size=4))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_rows_share_nothing(expr, rows):
    """One closure over many rows equals a fresh closure per row: no
    constant (an IN list's member set, a bound) is taken from a row."""
    try:
        shared = expr.compile()
    except Exception:                           # noqa: BLE001
        shared = None
    for row in rows:
        fresh = _outcome(lambda: expr.compile()(row))
        if shared is not None:
            assert _outcome(lambda: shared(row)) == fresh, (expr, row)


def test_the_two_fixes_by_name():
    a = Column("t", "a", key="t.a")
    for negated in (False, True):
        between = Between(a, Literal(None), Literal(5), negated)
        assert between.eval({"t.a": 3}) is False
        assert Between(a, Literal(1), a, negated).eval({"t.a": None}) \
            is False
        assert InList(a, [Literal(1), Literal(None)], negated).eval(
            {"t.a": None}) is False
        assert InList(Literal(None), [a], negated).eval({"t.a": None}) \
            is False
    assert InList(a, [Literal(1), Literal(None)]).eval({"t.a": 1}) is True
    assert Between(a, Literal(1), Literal(5), True).eval({"t.a": 9}) is True


def test_eval_caches_a_closure_that_does_not_hold_its_node():
    expr = BinaryOp("<", Column("t", "a", key="t.a"), Literal(3))
    assert expr.eval({"t.a": 1}) is True
    fn = expr._fn
    assert fn is not None and expr.eval({"t.a": 5}) is False
    assert expr._fn is fn
    held = [cell.cell_contents for cell in fn.__closure__]
    assert not any(isinstance(obj, Expr) for obj in held)


def test_like_escapes_regex_metacharacters():
    s = Column("t", "s", key="t.s")
    assert Like(s, "a.b").eval({"t.s": "a.b"}) is True
    assert Like(s, "a.b").eval({"t.s": "axb"}) is False
    assert Like(s, "a_b%").eval({"t.s": "axbcd"}) is True
    assert Like(s, "a%", negated=True).eval({"t.s": None}) is True
    assert re.escape("(") in Like(s, "(").__dict__["_re"].pattern


# ============================================================= aggregation
def _bits(value):
    """Exact, order-free rendering: floats by ``float.hex`` (-0.0 is not
    0.0, NaN is NaN), sets sorted, containers recursed, types kept."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(map(_bits, value), key=repr))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_bits(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, _bits(v)) for k, v in value.items()])
    return (type(value).__name__, repr(value))


_group_values = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, _NAN, float("nan")]),
    st.sampled_from(list(_Level)), st.sampled_from(["x", "y"]))
_measures = st.one_of(st.none(), _ints,
                      st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e16,
                                       -1e16, 2.5]))
_agg_rows = st.lists(st.fixed_dictionaries({
    "t.g": _group_values, "t.h": _group_values,
    "t.x": _measures, "t.y": _measures,
}), max_size=24)

_G = Column("t", "g", key="t.g")
_H = Column("t", "h", key="t.h")
_X = Column("t", "x", key="t.x")
_Y = Column("t", "y", key="t.y")
_group_items = st.sampled_from([
    [],                                         # global aggregate
    [("t.g", _G)],
    [("t.g", _G), ("t.h", _H)],
    [("(t.x+1)", BinaryOp("+", _X, Literal(1)))],
    [("t.h", _H), ("null?", IsNull(_G))],
])
_hive_aggs = st.lists(st.one_of(
    st.just(FuncCall("count", [Star()])),
    st.just(FuncCall("count", [])),
    st.builds(FuncCall, st.sampled_from(sorted(AGGREGATE_FUNCS)),
              st.sampled_from([[_X], [_Y],
                               [BinaryOp("*", _X, _Y)]]),
              st.booleans()),
), max_size=4, unique_by=lambda agg: agg.agg_key())


@given(rows=_agg_rows, group_items=_group_items, aggs=_hive_aggs)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hive_grouping_matches_frozen(rows, group_items, aggs):
    want = _outcome(lambda: _bits(
        _FrozenPartialAggregate(rows, group_items, aggs)))
    assert _outcome(lambda: _bits(
        partial_aggregate(rows, group_items, aggs))) == want
    node = Aggregate(InputLeaf("t"), group_items, aggs)
    assert _outcome(lambda: _bits(run_aggregate(node, rows))) \
        == _outcome(lambda: _bits(_FrozenRunAggregate(node, rows)))


@given(rows=_agg_rows, group_items=_group_items, aggs=_hive_aggs,
       splits=st.integers(1, 4), empty_global=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hive_merge_matches_frozen(rows, group_items, aggs, splits,
                                   empty_global):
    """Partial states of ``splits`` map tasks, grouped as the shuffle
    groups them, merged left to right and finalized."""
    try:
        partials = [_FrozenPartialAggregate(rows[i::splits], group_items,
                                            aggs) for i in range(splits)]
    except Exception:                           # noqa: BLE001
        assume(False)
    grouped: dict = {}
    for partial in partials:
        for values, states in partial:
            key = tuple(map(sort_key, values))
            grouped.setdefault(key, (values, []))[1].append(states)
    grouped = list(grouped.values())
    want = _outcome(lambda: _bits(_FrozenMergeGroups(
        grouped, group_items, aggs, empty_global)))
    assert _outcome(lambda: _bits(merge_aggregate_groups(
        grouped, group_items, aggs, empty_global))) == want


def test_partial_states_merge_left_to_right():
    # ((0.1 + 0.2) + 1e16) - 1e16 is 0.0; any other folding is not.
    states = [(0.1, (0.1, 1)), (0.2, (0.2, 1)), (1e16, (1e16, 1)),
              (-1e16, (-1e16, 1))]
    aggs = [FuncCall("sum", [_X]), FuncCall("avg", [_X])]
    for merge in (merge_aggregate_groups, _FrozenMergeGroups):
        assert merge([((), states)], [], aggs) == [
            {"sum(t.x)": 0.0, "avg(t.x)": 0.0}]
    merge_states = pig.state_merger({"s": ("sum", "t.x"),
                                     "a": ("avg", "t.x")})
    assert list(merge_states(states)) == [0.0, (0.0, 4)]


_pig_aggs = st.dictionaries(
    st.sampled_from(["n", "total", "mean", "lo", "hi"]),
    st.tuples(st.sampled_from(["count", "sum", "avg", "min", "max"]),
              st.sampled_from([None, "t.x", "t.y"])),
    max_size=4)
_pig_keys = st.sampled_from([[], ["t.g"], ["t.g", "t.h"], ["t.x"]])


@given(rows=_agg_rows, keys=_pig_keys, aggs=_pig_aggs)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pig_grouping_matches_frozen(rows, keys, aggs):
    want = _outcome(lambda: _bits(_FrozenPartialStates(rows, keys, aggs)))
    assert _outcome(lambda: _bits(
        pig.partial_aggregate_states(rows, keys, aggs))) == want
    assert _outcome(lambda: _bits(pig.apply_aggregate(rows, keys, aggs))) \
        == _outcome(lambda: _bits(_FrozenApplyAggregate(rows, keys, aggs)))


# COUNT and SUM fold inline in ``Aggregation.partial`` (not through the
# kernel's ``update``): every input shape of each - every row, a NULL-
# skipping column, Pig's ``("sum", None)`` summing a 1 per row - alone
# and beside the generic kernels.
_inlined_hive_aggs = st.lists(st.one_of(
    st.just(FuncCall("count", [Star()])),
    st.builds(FuncCall, st.sampled_from(["count", "sum"]),
              st.sampled_from([[_X], [_Y], [BinaryOp("*", _X, _Y)]])),
    st.builds(FuncCall, st.sampled_from(["avg", "min"]), st.just([_X]),
              st.booleans()),
), min_size=1, max_size=4, unique_by=lambda agg: agg.agg_key())
_inlined_pig_aggs = st.dictionaries(
    st.sampled_from(["n", "total", "mean", "lo", "hi"]),
    st.tuples(st.sampled_from(["count", "count", "sum", "sum", "max"]),
              st.sampled_from([None, "t.x", "t.y"])),
    min_size=1, max_size=4)


@given(rows=_agg_rows, group_items=_group_items, hive=_inlined_hive_aggs,
       keys=_pig_keys, pig_aggs=_inlined_pig_aggs)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_inlined_count_and_sum_match_frozen(rows, group_items, hive, keys,
                                           pig_aggs):
    assert _outcome(lambda: _bits(partial_aggregate(rows, group_items,
                                                    hive))) \
        == _outcome(lambda: _bits(_FrozenPartialAggregate(
            rows, group_items, hive)))
    assert _outcome(lambda: _bits(pig.partial_aggregate_states(
        rows, keys, pig_aggs))) \
        == _outcome(lambda: _bits(_FrozenPartialStates(rows, keys,
                                                       pig_aggs)))


def test_tagged_groups_by_name():
    rows = [{"t.g": g, "t.h": None, "t.x": 1, "t.y": None}
            for g in (True, 1, 1.0, _Level.ONE, None, None, _NAN, _NAN,
                      float("nan"), "1")]
    got = partial_aggregate(rows, [("t.g", _G)],
                            [FuncCall("count", [Star()])])
    # True alone; 1, 1.0 and the IntEnum together, leaving as the first
    # seen; both NULLs; the one NaN object twice, another NaN apart.
    assert [(type(values[0]), states) for values, states in got] == [
        (bool, (1,)), (int, (3,)), (type(None), (2,)), (float, (2,)),
        (float, (1,)), (str, (1,))]
    assert [states for _v, states in pig.partial_aggregate_states(
        rows, ["t.g"], {"n": ("count", None)})] \
        == [states for _v, states in got]


def test_empty_input_and_global_aggregates():
    aggs = [FuncCall("count", [Star()]), FuncCall("sum", [_X]),
            FuncCall("avg", [_X]), FuncCall("min", [_X], distinct=True)]
    assert partial_aggregate([], [], aggs) == []
    node = Aggregate(InputLeaf("t"), [], aggs)
    assert run_aggregate(node, []) == [{
        "count(*)": 0, "sum(t.x)": None, "avg(t.x)": None,
        "min(distinct t.x)": None}]
    assert run_aggregate(Aggregate(InputLeaf("t"), [("t.g", _G)], aggs),
                         []) == []
    assert pig.apply_aggregate([], [], {"n": ("count", None)}) == []
    assert pig.partial_aggregate_states(
        [{"t.x": 2.5}, {"t.x": None}], [],
        {"n": ("count", "t.x"), "s": ("sum", "t.x")}) == [((), (2, 2.5))]
