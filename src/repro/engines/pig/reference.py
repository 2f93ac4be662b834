"""Pig's relational kernels, and the in-memory reference executor.

The kernels (:func:`key_tuples` - the lowering's, shared with Hive and
every sink -, the aggregation trio, :func:`hash_join`,
:func:`order_rows`) are what the Tez and MapReduce compilers ship into
tasks and what :func:`execute_script` runs in process for differential
tests. Each resolves its field getters and aggregate steppers once per
call and then touches every row once (DESIGN.md "Operator kernels").
"""

from __future__ import annotations

import operator
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable

from ...shuffle.sorter import sort_keys
from ..lowering import key_tuples
from .model import PigScript, Relation

__all__ = ["execute_script", "rows_from_tuples", "key_tuples", "tagged_keys",
           "partial_aggregate_states", "state_merger", "state_finisher",
           "merge_aggregate_states", "apply_aggregate", "hash_join",
           "order_rows"]


def rows_from_tuples(records: list[tuple], schema: list[str]) -> list[dict]:
    """Decode stored tuples into row dicts."""
    fields = list(enumerate(schema))
    rows = []
    for rec in records:
        # Not ``dict(zip(schema, rec))`` per row: on CPython 3.11 that
        # costs 40 % more than this loop.
        row = {}
        for i, name in fields:
            row[name] = rec[i]
        rows.append(row)
    return rows


def tagged_keys(rows: list[dict], keys: list[str]) -> list[tuple]:
    """``key_tuples`` under tagged equality (``sort_key`` per field):
    what groups, joins, de-duplicates and orders rows."""
    if not keys:
        return [()] * len(rows)
    return list(zip(*[sort_keys(list(map(itemgetter(k), rows)))
                      for k in keys]))


def _null_first(fn):
    """Combine two states where NULL means "no value seen yet"."""
    def combine(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return fn(a, b)
    return combine


def _count(state, _value):
    return state + 1


def _sum(state, value):
    if value is None:
        return state
    return value if state is None else state + value


def _avg(state, value):
    if value is None:
        return state
    return (state[0] + value, state[1] + 1)


def _min(state, value):
    if value is None:
        return state
    return value if state is None or value < state else state


def _max(state, value):
    if value is None:
        return state
    return value if state is None or value > state else state


def _avg_result(state):
    total, n = state
    return total / n if n else None


# func -> (initial state, step, combine, result or None for "the state");
# every initial state is immutable, so one list seeds every group.
_AGGREGATES = {
    "count": (0, _count, operator.add, None),
    "sum": (None, _sum, _null_first(operator.add), None),
    "avg": ((0.0, 0), _avg, lambda a, b: (a[0] + b[0], a[1] + b[1]),
            _avg_result),
    "min": (None, _min, _null_first(min), None),
    "max": (None, _max, _null_first(max), None),
}


def partial_aggregate_states(rows: list[dict], keys: list[str],
                             aggs: dict) -> list[tuple]:
    """The grouping pass: ``[(key_values, state_tuple)]`` in first-seen
    order, every row stepped into its group's states in row order."""
    kernels = [_AGGREGATES[func] for func, _field in aggs.values()]
    initial = [kernel[0] for kernel in kernels]
    steps = [(i, kernel[1]) for i, kernel in enumerate(kernels)]
    inputs = zip(*[
        repeat(1) if field is None else map(itemgetter(field), rows)
        for _func, field in aggs.values()
    ]) if aggs else repeat(())
    groups: dict[tuple, tuple] = {}
    for key, raw, args in zip(tagged_keys(rows, keys),
                              key_tuples(rows, keys), inputs):
        group = groups.get(key)
        if group is None:
            group = groups[key] = (raw, initial.copy())
        state = group[1]
        for i, step in steps:
            state[i] = step(state[i], args[i])
    return [(raw, tuple(state)) for raw, state in groups.values()]


def state_merger(aggs: dict) -> Callable[[list], Any]:
    """``[partial states, ...] -> merged states``, left to right."""
    combines = [_AGGREGATES[func][2] for func, _field in aggs.values()]

    def merge_states(states):
        merged = states[0]
        for state in states[1:]:
            merged = [c(a, b) for c, a, b in zip(combines, merged, state)]
        return merged

    return merge_states


def state_finisher(keys: list[str], aggs: dict) -> Callable[[tuple, list],
                                                            dict]:
    """``(key_values, [partial states, ...]) -> final row``."""
    merge_states = state_merger(aggs)
    outs = list(aggs)
    results = [(out, _AGGREGATES[func][3]) for out, (func, _f) in aggs.items()
               if _AGGREGATES[func][3] is not None]

    def finish(key_values, states):
        row = dict(zip(keys, key_values))
        row.update(zip(outs, merge_states(states)))
        for out, result in results:
            row[out] = result(row[out])
        return row

    return finish


def merge_aggregate_states(grouped: list[tuple], keys: list[str],
                           aggs: dict) -> list[dict]:
    """Reduce-side merge of partial states into final rows."""
    finish = state_finisher(keys, aggs)
    return [finish(key_values, states) for key_values, states in grouped]


def apply_aggregate(rows: list[dict], keys: list[str],
                    aggs: dict[str, tuple[str, Any]]) -> list[dict]:
    """Full aggregation: the grouping pass, then the merge of its one
    state per group."""
    return merge_aggregate_states(
        [(raw, [state])
         for raw, state in partial_aggregate_states(rows, keys, aggs)],
        keys, aggs,
    )


def hash_join(left: list[dict], right: list[dict], left_keys: list[str],
              right_keys: list[str], how: str,
              right_only: list[str]) -> list[dict]:
    """Build on the right, probe with the left, in row order; a match
    contributes the fields only the right side has."""
    build: dict = {}
    picked = key_tuples(right, right_only)
    for key, fields in zip(tagged_keys(right, right_keys), picked):
        build.setdefault(key, []).append(dict(zip(right_only, fields)))
    padding = dict.fromkeys(right_only) if how == "left" else None
    matches_of = build.get
    rows = []
    for key, row in zip(tagged_keys(left, left_keys), left):
        matches = matches_of(key)
        if matches:
            for match in matches:
                rows.append({**row, **match})
        elif padding is not None:
            rows.append({**row, **padding})
    return rows


def order_rows(rows: list[dict], keys: list[str],
               ascending: bool) -> list[dict]:
    """Stable sort by the tagged key tuple."""
    tagged = tagged_keys(rows, keys)
    order = sorted(range(len(rows)), key=tagged.__getitem__,
                   reverse=not ascending)
    return [rows[i] for i in order]


def _eval(rel: Relation, hdfs, cache: dict) -> list[dict]:
    if id(rel) in cache:
        return cache[id(rel)]
    p = rel.params
    if rel.op == "load":
        records = hdfs.read_file(p["path"])
        rows = rows_from_tuples(records, rel.schema)
    elif rel.op == "filter":
        rows = [r for r in _eval(rel.parents[0], hdfs, cache)
                if p["predicate"](r)]
    elif rel.op == "foreach":
        rows = [p["fn"](r) for r in _eval(rel.parents[0], hdfs, cache)]
    elif rel.op == "flatten":
        rows = [
            out
            for r in _eval(rel.parents[0], hdfs, cache)
            for out in p["fn"](r)
        ]
    elif rel.op == "group":
        parent = _eval(rel.parents[0], hdfs, cache)
        groups: dict = {}
        raw: dict = {}
        for key, values, r in zip(tagged_keys(parent, p["keys"]),
                                  key_tuples(parent, p["keys"]), parent):
            groups.setdefault(key, []).append(r)
            raw[key] = values
        rows = [
            {"group": raw[g] if len(p["keys"]) > 1 else raw[g][0],
             "bag": bag}
            for g, bag in groups.items()
        ]
    elif rel.op == "aggregate":
        rows = apply_aggregate(
            _eval(rel.parents[0], hdfs, cache), p["keys"], p["aggs"]
        )
    elif rel.op == "join":
        rows = hash_join(
            _eval(rel.parents[0], hdfs, cache),
            _eval(rel.parents[1], hdfs, cache),
            p["left_keys"], p["right_keys"], p["how"],
            [c for c in rel.parents[1].schema
             if c not in rel.parents[0].schema],
        )
    elif rel.op == "union":
        rows = (
            _eval(rel.parents[0], hdfs, cache)
            + _eval(rel.parents[1], hdfs, cache)
        )
    elif rel.op == "distinct":
        parent = _eval(rel.parents[0], hdfs, cache)
        first: dict = {}
        for key, r in zip(tagged_keys(parent, rel.schema), parent):
            first.setdefault(key, r)
        rows = list(first.values())
    elif rel.op == "order":
        rows = order_rows(_eval(rel.parents[0], hdfs, cache), p["keys"],
                          p["ascending"])
    elif rel.op == "limit":
        rows = _eval(rel.parents[0], hdfs, cache)[: p["n"]]
    else:
        raise ValueError(f"unknown op {rel.op}")
    cache[id(rel)] = rows
    return rows


def execute_script(script: PigScript, hdfs) -> dict[str, list[dict]]:
    """Evaluate all stores; returns {store path: rows}."""
    script.validate()
    cache: dict = {}
    return {
        path: _eval(rel, hdfs, cache)
        for rel, path in script.stores
    }
